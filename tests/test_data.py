"""Dataset generation, mismatch splits, augmentation, batch pairing, file formats."""

import csv
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dts_ssl.data import (
    AugmentConfig,
    Dataset,
    DatasetSpec,
    PairSampler,
    augment_batch,
    build_mismatch_split,
    feature_scale,
    generate_synthetic,
    load_cifar10_dir,
    load_dataset,
    save_dataset,
)
from dts_ssl.errors import CapacityError, ValidationError
from dts_ssl.numerics import round_half_up


def small_dataset(classes=4, per_class=50, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(classes * per_class, dim))
    labels = np.repeat(np.arange(1, classes + 1), per_class)
    return Dataset("toy", feats, labels, classes)


class TestBuildMismatchSplit:
    def test_zero_ratio_has_no_unseen(self):
        ds = small_dataset(classes=4, per_class=700)
        split = build_mismatch_split(ds, [1, 2], ratio=0.0, m=50, n=1000, seed=3)
        assert len(split.unlabeled_x) == 1000
        assert split.unlabeled_is_unseen.sum() == 0

    def test_counts_follow_rounding_rule(self):
        ds = small_dataset(classes=4, per_class=600)
        split = build_mismatch_split(ds, [1, 2], ratio=0.3, m=50, n=1000, seed=3)
        assert split.unlabeled_is_unseen.sum() == 300
        assert (~split.unlabeled_is_unseen).sum() == 700

    def test_cifar_style_protocol_counts(self):
        # 10 classes, 6 seen; labeled 2400, unlabeled 20000 at ratio 0.6
        ds = small_dataset(classes=10, per_class=3600, dim=2)
        split = build_mismatch_split(
            ds, seen_class_ids=range(1, 7), ratio=0.6, m=2400, n=20000, test_fraction=0.05, seed=0
        )
        assert len(split.labeled_x) == 2400
        assert split.unlabeled_is_unseen.sum() == 12000
        assert (~split.unlabeled_is_unseen).sum() == 8000
        assert split.K == 6

    def test_labeled_and_test_only_seen_classes(self):
        ds = small_dataset(classes=5, per_class=300)
        split = build_mismatch_split(ds, [2, 4], ratio=0.5, m=40, n=200, seed=1)
        seen_original = ds.labels[split.labeled_indices]
        assert set(np.unique(seen_original)) <= {2, 4}
        assert set(np.unique(ds.labels[split.test_indices])) <= {2, 4}
        # labels remapped to 1..K
        assert set(np.unique(split.labeled_y)) <= {1, 2}
        assert set(np.unique(split.test_y)) <= {1, 2}

    def test_deterministic_per_seed(self):
        ds = small_dataset(classes=4, per_class=400)
        a = build_mismatch_split(ds, [1, 2], 0.4, 50, 500, seed=7)
        b = build_mismatch_split(ds, [1, 2], 0.4, 50, 500, seed=7)
        assert np.array_equal(a.unlabeled_indices, b.unlabeled_indices)
        assert a.unlabeled_x.tobytes() == b.unlabeled_x.tobytes()

    def test_ratio_out_of_range_rejected(self):
        ds = small_dataset()
        with pytest.raises(ValidationError):
            build_mismatch_split(ds, [1, 2], ratio=1.5, m=10, n=20)

    def test_capacity_error_names_pool(self):
        ds = small_dataset(classes=4, per_class=30)
        with pytest.raises(CapacityError, match="unseen"):
            build_mismatch_split(ds, [1, 2], ratio=0.9, m=5, n=100, test_fraction=0.1, seed=0)
        with pytest.raises(CapacityError, match="labeled"):
            build_mismatch_split(ds, [1, 2], ratio=0.0, m=1000, n=5, test_fraction=0.1, seed=0)

    def test_one_seen_class_rejected(self):
        # the models classify among K >= 2 seen classes
        with pytest.raises(ValidationError, match=r"seen_class_ids: must name at least two classes, got \[1\]"):
            build_mismatch_split(small_dataset(), [1], ratio=0.5, m=10, n=20)

    def test_test_part_that_rounds_to_no_example_rejected(self):
        ds = small_dataset(classes=4, per_class=50)  # two seen classes: 100 seen-class examples
        with pytest.raises(CapacityError, match=r"test \(seen classes\) part is empty: test_fraction 0.004 of 100"):
            build_mismatch_split(ds, [1, 2], ratio=0.5, m=10, n=20, test_fraction=0.004)
        split = build_mismatch_split(ds, [1, 2], ratio=0.5, m=10, n=20, test_fraction=0.005)
        assert len(split.test_x) == 1  # 0.5 rounds half up

    def test_needs_unseen_class_when_ratio_positive(self):
        ds = small_dataset(classes=3, per_class=100)
        with pytest.raises(ValidationError):
            build_mismatch_split(ds, [1, 2, 3], ratio=0.3, m=10, n=50)

    @given(
        n=st.integers(min_value=10, max_value=400),
        ratio=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_unseen_count_exact_for_any_ratio(self, n, ratio):
        ds = small_dataset(classes=4, per_class=500)
        split = build_mismatch_split(ds, [1, 2], ratio=ratio, m=10, n=n, test_fraction=0.1, seed=0)
        assert split.unlabeled_is_unseen.sum() == round_half_up(n * ratio)
        assert len(split.unlabeled_x) == n


class TestGenerateSynthetic:
    def test_counts_and_classes(self):
        ds = generate_synthetic(k_seen=2, k_unseen=1, dim=2, per_class=100, seed=0)
        assert len(ds) == 300
        assert ds.class_count == 3

    def test_nearest_center_oracle_on_seen(self):
        ds = generate_synthetic(3, 1, 4, 200, separation=6.0, noise=1.0, seed=5)
        centers = {c: ds.features[ds.labels == c].mean(axis=0) for c in range(1, 4)}
        seen_mask = ds.labels <= 3
        feats, labs = ds.features[seen_mask], ds.labels[seen_mask]
        dists = np.stack([np.linalg.norm(feats - centers[c], axis=1) for c in range(1, 4)])
        preds = dists.argmin(axis=0) + 1
        assert (preds == labs).mean() > 0.99

    def test_same_seed_byte_identical(self):
        a = generate_synthetic(2, 2, 8, 50, seed=11)
        b = generate_synthetic(2, 2, 8, 50, seed=11)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_pairwise_center_separation(self):
        ds = generate_synthetic(4, 2, 16, 200, separation=3.0, noise=0.1, seed=2)
        centers = [ds.features[ds.labels == c].mean(axis=0) for c in range(1, 7)]
        for i in range(6):
            for j in range(i + 1, 6):
                # empirical centers wobble by ~noise/sqrt(per_class)
                assert np.linalg.norm(centers[i] - centers[j]) > 3.0 - 0.1

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            generate_synthetic(1, 1, 4, 10)
        with pytest.raises(ValidationError):
            generate_synthetic(2, 0, 1, 10)


class TestAugment:
    def test_weak_zero_jitter_is_identity(self):
        x = np.arange(8.0)
        cfg = AugmentConfig(weak_sigma=0.0)
        view = augment_batch(x[None, :], "weak", np.random.default_rng(0), config=cfg)
        assert np.array_equal(view[0], x)

    def test_strong_masks_exact_count(self):
        x = np.ones(8)
        cfg = AugmentConfig(strong_sigma=0.0, mask_fraction=0.25)
        view = augment_batch(x[None, :], "strong", np.random.default_rng(0), config=cfg)
        assert (view == 0).sum() == 2

    def test_distinct_rng_states_differ(self):
        x = np.zeros(16)
        a = augment_batch(x[None, :], "strong", np.random.default_rng(1))
        b = augment_batch(x[None, :], "strong", np.random.default_rng(2))
        assert not np.array_equal(a, b)

    @given(
        dim=st.integers(min_value=2, max_value=40),
        mode=st.sampled_from(["weak", "strong"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_dimension_preserved(self, dim, mode):
        x = np.random.default_rng(dim).normal(size=(5, dim))
        out = augment_batch(x, mode, np.random.default_rng(0))
        assert out.shape == x.shape

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            augment_batch(np.zeros((1, 4)), "medium", np.random.default_rng(0))


class TestPairSampler:
    def make_split(self, m=10, n=40, dim=3):
        ds = small_dataset(classes=3, per_class=max(m, n) + 60, dim=dim)
        return build_mismatch_split(ds, [1, 2], 0.5, m, n, test_fraction=0.1, seed=0)

    def test_mu_scaling(self):
        split = self.make_split()
        sampler = PairSampler(split, batch_size=4, mu=1, rng=np.random.default_rng(0))
        batch = sampler.next_batch_pair()
        assert len(batch.labeled_x) == 4 and len(batch.unlabeled_x) == 4

    def test_reference_scale_batch_ratio(self):
        split = self.make_split(m=512, n=4000)
        sampler = PairSampler(split, batch_size=256, mu=7, rng=np.random.default_rng(0))
        batch = sampler.next_batch_pair()
        assert len(batch.unlabeled_x) == 1792

    def test_epoch_covers_labeled_set(self):
        split = self.make_split(m=10)
        sampler = PairSampler(split, batch_size=4, mu=2, rng=np.random.default_rng(0))
        seen_rows = []
        for batch in sampler.epoch():
            assert len(batch.unlabeled_x) == 2 * len(batch.labeled_x)
            seen_rows.extend(batch.labeled_x.tolist())
        assert len(seen_rows) == 10
        assert {tuple(r) for r in seen_rows} == {tuple(r) for r in split.labeled_x.tolist()}

    def test_fixed_seed_reproduces_sequence(self):
        split = self.make_split()
        seqs = []
        for _ in range(2):
            sampler = PairSampler(split, 4, 2, np.random.default_rng(123))
            seqs.append([sampler.next_batch_pair().unlabeled_indices.tolist() for _ in range(5)])
        assert seqs[0] == seqs[1]

    def test_labeled_only_epochs_match_per_epoch_shuffle(self):
        # oracle: one persistent order, shuffled once per epoch, then ceil(m / bs)
        # slices, the batching pre-training ran before it drew from a sampler
        split = self.make_split(m=10)
        m, bs = len(split.labeled_x), 4
        assert m == 10  # not a multiple of bs: every epoch ends on a short batch
        rng, oracle_rng = np.random.default_rng(7), np.random.default_rng(7)
        sampler = PairSampler(split, bs, 2, rng, include_unlabeled=False)
        order = np.arange(m)
        for _ in range(3):
            oracle_rng.shuffle(order)
            batches = list(sampler.epoch())
            assert len(batches) == -(-m // bs)
            for start, batch in zip(range(0, m, bs), batches):
                idx = order[start : start + bs]
                assert np.array_equal(batch.labeled_x, split.labeled_x[idx])
                assert np.array_equal(batch.labeled_y, split.labeled_y[idx])
                assert len(batch.unlabeled_x) == 0
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_empty_split_rejected(self):
        split = self.make_split()
        split.labeled_x = split.labeled_x[:0]
        with pytest.raises(ValidationError):
            PairSampler(split, 4, 2, np.random.default_rng(0))


class TestFileFormats:
    def test_dataset_roundtrip(self, tmp_path):
        ds = generate_synthetic(2, 1, 5, 20, seed=4)
        path = tmp_path / "blobs.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.name == ds.name
        assert loaded.class_count == ds.class_count
        assert np.array_equal(loaded.labels, ds.labels)
        assert np.array_equal(loaded.features, ds.features)  # repr round-trip is exact

    def test_an_unchanged_file_is_parsed_once_and_a_rewritten_one_again(self, tmp_path, monkeypatch):
        parses, reader = [], csv.reader
        monkeypatch.setattr(csv, "reader", lambda *a, **k: parses.append(1) or reader(*a, **k))
        path = tmp_path / "d.csv"
        first, second = generate_synthetic(2, 1, 4, 10, seed=0), generate_synthetic(2, 1, 4, 12, seed=1)
        save_dataset(first, path)
        a, b = load_dataset(path), load_dataset(path)
        assert len(parses) == 1
        assert not np.shares_memory(a.features, b.features) and not np.shares_memory(a.labels, b.labels)
        a.features[0, 0] = np.nan  # each call's arrays are its own
        assert np.array_equal(load_dataset(path).features, first.features)
        save_dataset(second, path)  # another size
        assert np.array_equal(load_dataset(path).features, second.features) and len(parses) == 2
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))  # the same bytes, a later mtime
        load_dataset(path)
        assert len(parses) == 3
        meta = path.with_suffix(".meta.json")  # and the sidecar's own change
        meta.write_text(meta.read_text().replace('"name": "', '"name": "renamed-'))
        assert load_dataset(path).name == f"renamed-{second.name}" and len(parses) == 4

    def test_dataset_header(self, tmp_path):
        ds = generate_synthetic(2, 0, 3, 5, seed=0)
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "feature_0,feature_1,feature_2,label"

    @pytest.mark.parametrize("kind", ["synthetic", "csv"])
    def test_max_per_class_refused_off_cifar10(self, tmp_path, kind):
        path = tmp_path / "d.csv"
        save_dataset(generate_synthetic(3, 1, 5, 20, seed=0), path)
        # only a csv dataset reads the path; a synthetic one refuses it
        spec = DatasetSpec(kind=kind, path=str(path) if kind == "csv" else None, per_class=20, k_seen=3,
                           k_unseen=1, dim=5)
        spec.validate()
        spec.max_per_class = 2
        with pytest.raises(ValidationError, match=f"max_per_class: only a cifar10 dataset subsamples, "
                                                  f"got 2 for kind '{kind}'"):
            spec.validate()

    def test_missing_sidecar_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("feature_0,label\n0.0,1\n")
        with pytest.raises(ValidationError):
            load_dataset(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        # save_dataset writes nan as 'nan', which float() reads back; load_dataset refuses the row and
        # names it as it names every other bad cell: the path, then the 1-based row after the header
        ds = generate_synthetic(3, 1, 5, 120, seed=0)
        ds.features[7, 2] = np.nan
        ds.features[9, 0] = np.inf
        path = tmp_path / "x.csv"
        save_dataset(ds, path)
        message = f"^{re.escape(str(path))}: row 8 after the header: cells must be finite, got {{'feature_2': nan}}$"
        with pytest.raises(ValidationError, match=message):
            load_dataset(path)

    @pytest.mark.parametrize("text, problem", [
        ("feature_0,feature_1,label\n0.5,1.5,1\n0.5,2\n", r"row 2 after the header: 2 cells, the header has 3"),
        ("feature_0,label\n0.5,1\nnear,2\n", r"row 2 after the header: could not convert string to float: 'near'"),
        ("feature_0,label\n0.5,one\n", r"row 1 after the header: invalid literal for int\(\) .*'one'"),
        ("", r"expected a trailing 'label' column, got \[\]"),
    ])
    def test_malformed_csv_rejected(self, tmp_path, text, problem):
        path = tmp_path / "x.csv"
        path.write_text(text)
        path.with_suffix(".meta.json").write_text('{"name": "x", "class_count": 2}')
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {problem}"):
            load_dataset(path)

    @pytest.mark.parametrize("sidecar, problem", [
        ('{"class_count": 2}', "KeyError\\('name'\\)"),
        ("class_count: 2", "JSONDecodeError"),
        ('{"name": "x", "class_count": 3.7}', r"TypeError\(.* got 'x' and 3\.7"),
        ('{"name": "x", "class_count": "3"}', r"TypeError\(.* got 'x' and '3'"),
        ('{"name": "x", "class_count": true}', r"TypeError\(.* got 'x' and True"),
        ('{"name": 5, "class_count": 3}', r"TypeError\(.* got 5 and 3"),
    ])
    def test_malformed_sidecar_rejected(self, tmp_path, sidecar, problem):
        path = tmp_path / "x.csv"
        path.write_text("feature_0,label\n0.5,1\n")
        path.with_suffix(".meta.json").write_text(sidecar)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path.with_suffix('.meta.json')))}: "
                                                  f"not a dataset sidecar with a name and a class_count: {problem}"):
            load_dataset(path)

    def test_cifar_layout_ingestion(self, tmp_path):
        import pickle

        rng = np.random.default_rng(0)
        for b in (1, 2):
            payload = {
                b"data": rng.integers(0, 256, size=(20, 3072), dtype=np.uint8),
                b"labels": rng.integers(0, 10, size=20).tolist(),
            }
            with open(tmp_path / f"data_batch_{b}", "wb") as fh:
                pickle.dump(payload, fh)
        ds = load_cifar10_dir(tmp_path)
        assert len(ds) == 40
        assert ds.dim == 3072
        assert ds.features.max() <= 1.0
        assert set(np.unique(ds.labels)) <= set(range(1, 11))


@pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
def test_non_finite_feature_rejected(value):
    # the first non-finite value in row-major order is named, whatever follows it
    feats = np.zeros((4, 3))
    feats[2, 1], feats[3, 0] = value, np.nan
    message = rf"^features must be finite, got {value} at row 2, column 1 \(0-based\)$"
    with pytest.raises(ValidationError, match=message):
        Dataset("toy", feats, np.ones(4, dtype=np.int64), 1)


def test_feature_scale_matches_numpy_std():
    ds = small_dataset(classes=3, per_class=200)
    split = build_mismatch_split(ds, [1, 2], 0.5, 20, 100, seed=0)
    pooled = np.vstack([split.labeled_x, split.unlabeled_x])
    assert np.allclose(feature_scale(split), pooled.std(axis=0))
