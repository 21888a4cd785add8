import hashlib
import json

import numpy as np
import pytest

from mkdmts.errors import DataError
from mkdmts.kernels import KernelSet, build_kernelset, dtw
from mkdmts.mkd import TrainConfig, train
from mkdmts.mtsdata import (
    Dataset,
    SynthConfig,
    TimeSeries,
    class_rows,
    load_dataset,
    save_dataset,
    synth_dataset,
)


def test_class_rows_is_np_unique_and_flatnonzero():
    # negative labels, gaps between labels, and a single class
    gen = np.random.default_rng(34)
    vectors = [gen.choice(pool, size) for pool in ([-3, -1, 0, 2], [0, 5, 100], [7], [-9, 4]) for size in (1, 2, 9, 40)]
    for labels in vectors + [gen.integers(-5, 5, size=60)]:
        labels = labels.astype(np.int64)
        classes, rows = class_rows(labels)
        assert classes == np.unique(labels).tolist() and all(type(c) is int for c in classes)
        assert len(rows) == len(classes)
        for c, idx in zip(classes, rows):
            expected = np.flatnonzero(labels == c)
            assert idx.dtype == expected.dtype and idx.tobytes() == expected.tobytes()


def test_timeseries_rejects_nan():
    with pytest.raises(DataError, match="non-finite"):
        TimeSeries(id="x", values=np.array([[0.0, np.nan]]))


def test_timeseries_rejects_bad_shape():
    with pytest.raises(DataError):
        TimeSeries(id="x", values=np.array([1.0, 2.0, 3.0]).reshape(3))


def test_dataset_hash_frames_each_sequence():
    # an id running into its label, and one value buffer read in two shapes, both hashed equal before framing
    values = np.arange(12.0)
    pairs = [
        (TimeSeries(id="x1", values=np.ones((2, 3)), label=23), TimeSeries(id="x12", values=np.ones((2, 3)), label=3)),
        (TimeSeries(id="x", values=values.reshape(2, 6), label=0), TimeSeries(id="x", values=values.reshape(3, 4), label=0)),
    ]
    for a, b in pairs:
        assert Dataset([a]).hash() != Dataset([b]).hash()
        assert Dataset([a]).hash() == Dataset([TimeSeries(a.id, a.values.copy(), a.label)]).hash()


def test_dataset_hash_is_computed_once(monkeypatch):
    ds = Dataset([TimeSeries(id=f"s{i}", values=np.full((2, 4), float(i)), label=i) for i in range(3)])
    first = ds.hash()

    def no_second_hash(*args, **kwargs):
        raise AssertionError("the dataset hashed its sequences again")

    monkeypatch.setattr(hashlib, "sha256", no_second_hash)
    assert ds.hash() == first
    assert isinstance(ds.sequences, tuple)


def test_dataset_packs_its_sequences_once(monkeypatch):
    """Dimension l of sequence i sits zero-padded in column l * N + i of one read-only block, built on the first call."""
    lengths = [3, 5, 2]
    ds = Dataset([TimeSeries(id=f"s{i}", values=np.arange(2.0 * n).reshape(2, n) + i, label=0)
                  for i, n in enumerate(lengths)])
    block, steps = ds.packed()
    assert block.shape == (5, 6) and steps.tolist() == lengths * 2
    for l in range(2):
        for i, s in enumerate(ds.sequences):
            col = block[:, l * 3 + i]
            assert col[: s.length].tobytes() == s.dim(l).tobytes() and not col[s.length:].any()
    assert not (block.flags.writeable or steps.flags.writeable)
    monkeypatch.setattr("mkdmts.mtsdata.pack", None)
    assert ds.packed()[0] is block
    assert Dataset(ds.sequences) == ds  # the kept block takes no part in comparisons


def test_dataset_requires_consistent_dims():
    a = TimeSeries(id="a", values=np.zeros((2, 5)), label=0)
    b = TimeSeries(id="b", values=np.zeros((3, 5)), label=0)
    with pytest.raises(DataError, match="dimensions"):
        Dataset([a, b])


def test_seen_dataset_requires_labels(monkeypatch):
    # labels are optional in a Dataset and checked where they are read: kernels, before any DTW, and training
    ds = Dataset([TimeSeries(id=f"s{i}", values=np.full((2, 5), float(i))) for i in range(3)])
    monkeypatch.setattr("mkdmts.kernels.pairwise_dtw", lambda data: pytest.fail("DTW ran on an unlabeled seen set"))
    ks = KernelSet(kernels=[np.eye(3)] * 2, bandwidths=np.ones(2), repair_shift=np.zeros(2), dataset_hash=ds.hash())
    for read in (ds.labels, lambda: build_kernelset(ds, 1.0), lambda: train(ds, ks, TrainConfig(k=2))):
        with pytest.raises(DataError, match="^sequence 's0' has no label$"):
            read()


@pytest.mark.parametrize("bad", ["", ".", "..", "../x", "a/b", "a\\b"])
def test_dataset_rejects_unsafe_ids(bad):
    with pytest.raises(DataError, match="not a safe file name"):
        Dataset([TimeSeries(id=bad, values=np.zeros((1, 3)))])


def test_dataset_rejects_duplicate_ids():
    seqs = [TimeSeries(id="a", values=np.zeros((1, 3)), label=0),
            TimeSeries(id="a", values=np.ones((1, 3)), label=0)]
    with pytest.raises(DataError, match="duplicate sequence id 'a'"):
        Dataset(seqs)


def _write_manifest(tmp_path, records):
    man = tmp_path / "m.jsonl"
    with open(man, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return man


def test_load_dataset_basic(tmp_path):
    for name, cols in (("s0", 2), ("s1", 2), ("s2", 2)):
        with open(tmp_path / f"{name}.csv", "w") as fh:
            for t in range(4):
                fh.write(",".join(str(0.5 * t + d) for d in range(cols)) + "\n")
    man = _write_manifest(
        tmp_path,
        [{"id": n, "path": f"{n}.csv", "label": i} for i, n in enumerate(["s0", "s1", "s2"])],
    )
    ds = load_dataset(man)
    assert len(ds) == 3 and ds.dims == 2
    assert ds.sequences[1].values.shape == (2, 4)
    assert ds.labels().tolist() == [0, 1, 2]


def test_load_dataset_nan_cell_names_position(tmp_path):
    (tmp_path / "bad.csv").write_text("0.0,1.0\n2.0,nan\n")
    man = _write_manifest(tmp_path, [{"id": "bad", "path": "bad.csv"}])
    with pytest.raises(DataError, match=r"bad\.csv.*row 2, column 2"):
        load_dataset(man)


def test_load_dataset_ragged_dims(tmp_path):
    (tmp_path / "a.csv").write_text("0.0,1.0\n1.0,2.0\n")
    (tmp_path / "b.csv").write_text("0.0,1.0,2.0\n1.0,2.0,3.0\n")
    man = _write_manifest(tmp_path, [{"id": "a", "path": "a.csv"}, {"id": "b", "path": "b.csv"}])
    with pytest.raises(DataError, match="dimensions"):
        load_dataset(man)


def test_load_dataset_missing_file(tmp_path):
    man = _write_manifest(tmp_path, [{"id": "a", "path": "gone.csv"}])
    with pytest.raises(DataError, match="gone.csv"):
        load_dataset(man)


def test_load_dataset_empty_manifest(tmp_path):
    man = _write_manifest(tmp_path, [])
    with pytest.raises(DataError, match="no sequences"):
        load_dataset(man)


def test_string_labels_interned_first_seen(tmp_path):
    for n in ("a", "b", "c"):
        (tmp_path / f"{n}.csv").write_text("0.0\n1.0\n")
    man = _write_manifest(
        tmp_path,
        [
            {"id": "a", "path": "a.csv", "label": "walk"},
            {"id": "b", "path": "b.csv", "label": "run"},
            {"id": "c", "path": "c.csv", "label": "walk"},
        ],
    )
    ds = load_dataset(man)
    assert [s.label for s in ds.sequences] == [0, 1, 0]
    assert ds.label_names == {0: "walk", 1: "run"}


@pytest.mark.parametrize("labels,line", [(["walk", 0, "run", 1], 2), ([0, None, "walk"], 3)])
def test_load_dataset_rejects_mixed_string_and_integer_labels(tmp_path, labels, line):
    records = []
    for i, label in enumerate(labels):
        (tmp_path / f"s{i}.csv").write_text("0.0\n1.0\n")
        records.append({"id": f"s{i}", "path": f"s{i}.csv"} | ({} if label is None else {"label": label}))
    with pytest.raises(DataError, match=f"line {line}: 'label' .* mixes string and integer labels"):
        load_dataset(_write_manifest(tmp_path, records))


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    seqs = [
        TimeSeries(id=f"s{i}", values=rng.normal(size=(3, 5 + i)), label=i % 2)
        for i in range(4)
    ]
    ds = Dataset(seqs)
    man = save_dataset(ds, tmp_path, "roundtrip")
    back = load_dataset(man)
    assert back.ids() == ds.ids()
    for orig, loaded in zip(ds.sequences, back.sequences):
        np.testing.assert_array_equal(orig.values, loaded.values)
        assert orig.label == loaded.label


def test_saved_csv_text_pinned(tmp_path):
    # one line per time step, one shortest round-trip repr per dimension
    values = np.array([[0.1, -0.0, 1e-300, 2.0**53 + 1.0], [1.0, -2.5, 5e-324, 1.7976931348623157e308]])
    save_dataset(Dataset([TimeSeries(id="a", values=values, label=0)]), tmp_path, "pinned")
    assert (tmp_path / "pinned" / "a.csv").read_text() == (
        "0.1,1.0\n-0.0,-2.5\n1e-300,5e-324\n9007199254740992.0,1.7976931348623157e+308\n"
    )
    back = load_dataset(tmp_path / "pinned.jsonl").sequences[0].values
    assert back.tobytes() == values.tobytes()


def test_interrupted_save_rerun_leaves_no_manifest(tmp_path, monkeypatch):
    from mkdmts.ioutil import write_text

    old, _, _ = synth_dataset(SynthConfig(seed=1, samples_per_class=3, length_range=(10, 12)))
    new, _, _ = synth_dataset(SynthConfig(seed=2, samples_per_class=3, length_range=(10, 12)))
    save_dataset(old, tmp_path, "seen")
    written = []

    def fail_fourth(path, text):
        if len(written) == 3:
            raise DataError(f"{path}: cannot write (disk full)")
        written.append(path)
        write_text(path, text)

    with monkeypatch.context() as patch:
        patch.setattr("mkdmts.mtsdata.write_text", fail_fourth)
        with pytest.raises(DataError, match="disk full"):
            save_dataset(new, tmp_path, "seen")
    with pytest.raises(DataError, match="file not found"):
        load_dataset(tmp_path / "seen.jsonl")
    assert load_dataset(save_dataset(new, tmp_path, "seen")).hash() == new.hash()


def test_synth_deterministic():
    cfg = SynthConfig(seed=7, samples_per_class=3, length_range=(20, 30))
    seen1, unseen1, prov1 = synth_dataset(cfg)
    seen2, unseen2, prov2 = synth_dataset(cfg)
    assert prov1 == prov2
    for a, b in zip(seen1.sequences + unseen1.sequences, seen2.sequences + unseen2.sequences):
        assert a.id == b.id and a.label == b.label
        np.testing.assert_array_equal(a.values, b.values)


def test_synth_zero_noise_composites_are_exact_copies():
    cfg = SynthConfig(
        num_seen_classes=2, num_unseen_classes=1, dims=2,
        length_range=(20, 30), samples_per_class=2, noise_std=0.0, seed=5,
    )
    seen, unseen, prov = synth_dataset(cfg)
    sources = prov[str(unseen.sequences[0].label)]["sources"]
    by_class = {}
    for s in seen.sequences:
        by_class.setdefault(s.label, s)
    for z in unseen.sequences:
        for d in range(2):
            src = seen.sequences[[s.label for s in seen.sequences].index(sources[str(d)])]
            np.testing.assert_array_equal(z.values[d], src.values[d])


def test_synth_label_sets_disjoint():
    seen, unseen, _ = synth_dataset(SynthConfig(seed=1, samples_per_class=2, length_range=(16, 20)))
    assert set(seen.labels().tolist()).isdisjoint(unseen.labels().tolist())


def test_synth_rejects_too_many_unseen():
    with pytest.raises(DataError, match="combinations"):
        synth_dataset(SynthConfig(num_seen_classes=2, num_unseen_classes=3, samples_per_class=2, seed=0))


def test_synth_noisy_unseen_dimension_nearest_to_source_class():
    # every unseen dimension is DTW-closest to its provenance class
    cfg = SynthConfig(
        num_seen_classes=3, num_unseen_classes=2, dims=2,
        length_range=(30, 40), samples_per_class=4, noise_std=0.05, seed=11,
    )
    seen, unseen, prov = synth_dataset(cfg)
    labels = seen.labels()
    for z in unseen.sequences:
        sources = prov[str(z.label)]["sources"]
        for d in range(cfg.dims):
            means = {}
            for cls in range(cfg.num_seen_classes):
                idx = np.flatnonzero(labels == cls)
                means[cls] = np.mean([dtw(z.values[d], seen.sequences[i].values[d]) for i in idx])
            assert min(means, key=means.get) == sources[str(d)]


def test_synth_config_validation():
    with pytest.raises(DataError):
        SynthConfig(num_seen_classes=1)
    with pytest.raises(DataError):
        SynthConfig(dims=1)
    with pytest.raises(DataError):
        SynthConfig(noise_std=-0.1)
    with pytest.raises(DataError):
        SynthConfig(noise_std=float("nan"))
    with pytest.raises(DataError):
        SynthConfig(length_range=(50, 40))


@pytest.mark.parametrize("field, value", [("num_seen_classes", 3.0), ("num_unseen_classes", True), ("dims", 2.5),
                                          ("samples_per_class", 4.2), ("seed", 1.5), ("length_range", (20.5, 30)),
                                          ("length_range", [20, True]), ("length_range", (20, 30, 40)),
                                          ("length_range", 25), ("seed", -1)])
def test_synth_config_rejects_bad_integers(field, value):
    with pytest.raises(DataError, match=rf"{field}(\[\d\])? must be"):
        SynthConfig(**{field: value})


def test_synth_config_rejects_a_bool_noise_std():
    with pytest.raises(DataError, match="noise_std must be"):
        SynthConfig(noise_std=True)


def test_synth_config_takes_numpy_integers_and_a_length_list():
    cfg = SynthConfig(num_seen_classes=np.int64(3), samples_per_class=np.int32(2), length_range=[20, np.int64(30)])
    assert cfg.num_seen_classes == 3 and list(cfg.length_range) == [20, 30]


def test_id_with_a_nul_byte_is_rejected_at_load(tmp_path):
    (tmp_path / "a.csv").write_text("0.0,1.0\n")
    man = _write_manifest(tmp_path, [{"id": "x\u0000y", "path": "a.csv"}])
    with pytest.raises(DataError) as info:
        load_dataset(man)
    assert "sequence id 'x\\x00y' is not a safe file name" in str(info.value) and str(info.value).isprintable()
