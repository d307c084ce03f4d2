import csv
import json
import re
from dataclasses import replace

import pytest

from hatedetect.atomic import read_json_object
from hatedetect.corpus import (
    HATE,
    NON_HATE,
    DatasetSpec,
    LabeledExample,
    collapse_labels,
    combine_balanced,
    load_dataset,
    load_split_manifests,
    split,
    stats,
    write_split_manifests,
)

DAVIDSON_STYLE_MAPPING = {"hateful": HATE, "offensive": HATE, "neither": NON_HATE}


def write_csv(path, rows, header=("text", "label")):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def spec_for(path, name="toy"):
    return DatasetSpec(name=name, path=str(path), text_column="text", label_column="label")


def example(i, label=HATE):
    return LabeledExample(id=f"t:{i}", text=f"text {i}", raw_label="x", binary_label=label)


class TestLoadDataset:
    def test_three_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [["one", "a"], ["two", "b"], ["three", "a"]])
        examples = load_dataset(spec_for(path))
        assert len(examples) == 3
        assert [e.id for e in examples] == ["toy:0", "toy:1", "toy:2"]
        assert examples[1].raw_label == "b"

    def test_label_the_mapping_lacks_names_file_and_line(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [["one", "a"], ["", "zzz"], ["multi\nline", "a"], ["four", "b"]])
        spec = DatasetSpec(name="toy", path=str(path), text_column="text", label_column="label",
                           label_mapping={"a": HATE})
        with pytest.raises(ValueError, match=re.escape(f"dataset {path}:6: unmapped raw label 'b'")):
            load_dataset(spec)
        spec = replace(spec, label_mapping_file="m.json")
        with pytest.raises(ValueError, match=re.escape(
                f"dataset {path}:6: unmapped raw label 'b', not in the label mapping of m.json")):
            load_dataset(spec)

    def test_mapping_file_without_a_mapping_refused(self):
        with pytest.raises(ValueError, match="label_mapping_file names the file of a label_mapping"):
            DatasetSpec("toy", "d.csv", "text", "label", label_mapping_file="m.json")

    def test_empty_text_rows_skipped_and_logged(self, tmp_path, caplog):
        path = tmp_path / "d.csv"
        write_csv(path, [["one", "a"], ["   ", "b"], ["", "a"], ["four", "b"]])
        with caplog.at_level("INFO"):
            examples = load_dataset(spec_for(path))
        assert len(examples) == 2
        assert "skipped 2" in caplog.text
        # ids come from file row order, not from the surviving count
        assert [e.id for e in examples] == ["toy:0", "toy:3"]

    def test_bom_header_and_crlf(self, tmp_path):
        # spreadsheet exports often start with a UTF-8 BOM and end lines in CRLF
        path = tmp_path / "d.csv"
        path.write_bytes("\ufefftext,label\r\none,a\r\n\"two\r\nlines\",b\r\n".encode("utf-8"))
        examples = load_dataset(spec_for(path))
        assert [(e.id, e.text, e.raw_label) for e in examples] == [
            ("toy:0", "one", "a"),
            ("toy:1", "two\r\nlines", "b"),
        ]

    def test_rows_read_as_a_dict_reader_reads_them(self, tmp_path):
        # Blank lines take no row number, a short row's missing field reads
        # as "", extra fields are ignored, and a repeated header name reads
        # its last column.
        path = tmp_path / "d.csv"
        path.write_text("label,text,label\n\nL0,one,a\n\n\nL1,two\nL2,three,b,extra\n,,c\n",
                        encoding="utf-8")
        examples = load_dataset(spec_for(path))
        assert [(e.id, e.text, e.raw_label) for e in examples] == [
            ("toy:0", "one", "a"), ("toy:1", "two", ""), ("toy:2", "three", "b"),
        ]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(spec_for(tmp_path / "nope.csv"))

    def test_oversized_field_names_file_and_line(self, tmp_path):
        # the csv module refuses a field over 128 KiB
        path = tmp_path / "d.csv"
        write_csv(path, [["one", "a"], ["x" * (129 * 1024), "b"]])
        with pytest.raises(ValueError, match=r"d\.csv:3: field larger than field limit"):
            load_dataset(spec_for(path))

    def test_byte_that_is_not_utf8_names_file_and_line(self, tmp_path):
        # Far past the first read of the file, so the line is counted in the file.
        path = tmp_path / "d.csv"
        write_csv(path, [[f"text {i}", "a"] for i in range(2000)])
        lines = path.read_bytes().split(b"\n")
        lines[1500] = b"\xff" + lines[1500]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError, match=re.escape(f"{path}:1501: not UTF-8")):
            load_dataset(spec_for(path))

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [["one", "a"]], header=("text", "klass"))
        with pytest.raises(ValueError, match="label"):
            load_dataset(spec_for(path))

    def test_zero_usable_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [["", "a"], ["  ", "b"]])
        with pytest.raises(ValueError, match="zero usable"):
            load_dataset(spec_for(path))


class TestCollapse:
    def test_davidson_style_mapping(self):
        examples = [
            LabeledExample("d:0", "x", "offensive"),
            LabeledExample("d:1", "y", "neither"),
            LabeledExample("d:2", "z", "hateful"),
        ]
        collapsed, counts = collapse_labels(examples, DAVIDSON_STYLE_MAPPING)
        assert [e.binary_label for e in collapsed] == [HATE, NON_HATE, HATE]
        assert (counts.hate, counts.nonhate, counts.total) == (2, 1, 3)
        assert [e.id for e in collapsed] == ["d:0", "d:1", "d:2"]

    def test_unmapped_label_named_in_error(self):
        examples = [LabeledExample("d:0", "x", "satire")]
        with pytest.raises(ValueError, match="satire"):
            collapse_labels(examples, DAVIDSON_STYLE_MAPPING)

    def test_bad_mapping_value(self):
        with pytest.raises(ValueError, match="maybe"):
            collapse_labels([], {"weird": "maybe"})
        with pytest.raises(ValueError, match="maybe"):
            DatasetSpec("toy", "d.csv", "text", "label", label_mapping={"weird": "maybe"})

    def test_count_preserved(self):
        examples = [LabeledExample(f"d:{i}", "x", "neither") for i in range(7)]
        collapsed, counts = collapse_labels(examples, DAVIDSON_STYLE_MAPPING)
        assert len(collapsed) == 7
        assert stats(collapsed).total == 7
        assert counts.total == 7

    def test_mapping_file_roundtrip(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps(DAVIDSON_STYLE_MAPPING), encoding="utf-8")
        assert read_json_object(path, "label mapping file") == DAVIDSON_STYLE_MAPPING


class TestCombineBalanced:
    def test_three_vs_five(self):
        dataset = [example(i, HATE) for i in range(3)]
        dataset += [example(i + 10, NON_HATE) for i in range(5)]
        combined = combine_balanced([dataset], seed=0)
        counts = stats(combined)
        assert counts.hate == counts.nonhate == 3

    def test_missing_class(self):
        with pytest.raises(ValueError, match="nonhate"):
            combine_balanced([[example(0, HATE)]], seed=0)

    def test_exact_balance_for_any_seed(self):
        datasets = [
            [example(i, HATE) for i in range(11)],
            [example(100 + i, NON_HATE) for i in range(29)],
        ]
        for seed in range(5):
            counts = stats(combine_balanced(datasets, seed=seed))
            assert counts.hate == counts.nonhate == 11

    def test_sampling_without_replacement(self):
        dataset = [example(i, HATE if i % 2 else NON_HATE) for i in range(40)]
        combined = combine_balanced([dataset], seed=3)
        ids = [e.id for e in combined]
        assert len(ids) == len(set(ids))

    def test_deterministic_per_seed(self):
        dataset = [example(i, HATE if i % 3 else NON_HATE) for i in range(30)]
        first = combine_balanced([dataset], seed=9)
        second = combine_balanced([dataset], seed=9)
        assert [e.id for e in first] == [e.id for e in second]

    def test_per_class_cap(self):
        dataset = [example(i, HATE if i % 2 else NON_HATE) for i in range(40)]
        combined = combine_balanced([dataset], seed=0, per_class_cap=7)
        counts = stats(combined)
        assert counts.hate == counts.nonhate == 7
        with pytest.raises(ValueError, match="per_class_cap"):
            combine_balanced([dataset], seed=0, per_class_cap=0)

    def test_duplicate_ids_rejected(self):
        a = [example(0, HATE), example(1, NON_HATE)]
        with pytest.raises(ValueError, match="duplicate"):
            combine_balanced([a, a], seed=0)


class TestSplit:
    def make(self, n_hate, n_nonhate):
        dataset = [example(i, HATE) for i in range(n_hate)]
        dataset += [example(1000 + i, NON_HATE) for i in range(n_nonhate)]
        return dataset

    def test_exact_ratio_case(self):
        bundle = split(self.make(5, 5), (0.6, 0.2, 0.2), seed=0)
        assert [len(p) for p in bundle.parts()] == [6, 2, 2]

    def test_stratified_counts(self):
        # 100 examples, 40 hate / 60 nonhate: 0.6/0.2/0.2 of each stratum
        # is exact, so train must hold 24 hate and 36 nonhate.
        bundle = split(self.make(40, 60), (0.6, 0.2, 0.2), seed=1)
        train_counts = stats(bundle.train)
        assert train_counts.hate == 24
        assert train_counts.nonhate == 36
        for part in (bundle.validation, bundle.test):
            counts = stats(part)
            assert counts.hate == 8
            assert counts.nonhate == 12

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split(self.make(5, 5), (0.5, 0.5, 0.5), seed=0)
        with pytest.raises(ValueError):
            split(self.make(5, 5), (0.8, 0.3, -0.1), seed=0)

    def test_too_small(self):
        with pytest.raises(ValueError):
            split(self.make(1, 1), seed=0)

    def test_partition_disjoint_and_covering(self):
        dataset = self.make(13, 18)
        bundle = split(dataset, seed=2)
        id_sets = [set(e.id for e in part) for part in bundle.parts()]
        assert not (id_sets[0] & id_sets[1])
        assert not (id_sets[0] & id_sets[2])
        assert not (id_sets[1] & id_sets[2])
        assert id_sets[0] | id_sets[1] | id_sets[2] == {e.id for e in dataset}

    def test_repeatable_per_seed(self):
        dataset = self.make(10, 12)
        first = split(dataset, seed=7)
        second = split(dataset, seed=7)
        for a, b in zip(first.parts(), second.parts()):
            assert [e.id for e in a] == [e.id for e in b]

    def test_different_seed_differs(self):
        dataset = self.make(20, 20)
        a = split(dataset, seed=0)
        b = split(dataset, seed=1)
        assert [e.id for e in a.train] != [e.id for e in b.train]

    def test_unstratified_sizes(self):
        bundle = split(self.make(4, 6), (0.6, 0.2, 0.2), seed=0, stratified=False)
        assert [len(p) for p in bundle.parts()] == [6, 2, 2]

    def test_stratified_requires_collapsed(self):
        raw = [LabeledExample(f"r:{i}", "x", "a") for i in range(10)]
        with pytest.raises(ValueError, match="collapsed"):
            split(raw, seed=0)


class TestStats:
    def test_empty(self):
        counts = stats([])
        assert (counts.hate, counts.nonhate, counts.total) == (0, 0, 0)

    def test_uncollapsed_rejected(self):
        with pytest.raises(ValueError):
            stats([LabeledExample("x:0", "t", "raw")])


class TestManifests:
    def test_roundtrip(self, tmp_path):
        dataset = [example(i, HATE if i % 2 else NON_HATE) for i in range(20)]
        bundle = split(dataset, seed=4)
        write_split_manifests(bundle, tmp_path)
        loaded = load_split_manifests(tmp_path)
        assert loaded.seed == bundle.seed
        assert loaded.ratios == bundle.ratios
        assert loaded.stratified == bundle.stratified
        for original, reread in zip(bundle.parts(), loaded.parts()):
            assert [(e.id, e.text, e.raw_label, e.binary_label) for e in original] == [
                (e.id, e.text, e.raw_label, e.binary_label) for e in reread
            ]
        sidecar = json.loads((tmp_path / "split.json").read_text())
        assert sidecar["seed"] == 4
        assert sidecar["ratios"] == [0.6, 0.2, 0.2]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_split_manifests(tmp_path)

    def test_reads_only_the_named_parts(self, tmp_path):
        dataset = [example(i, HATE if i % 2 else NON_HATE) for i in range(20)]
        bundle = split(dataset, seed=4)
        write_split_manifests(bundle, tmp_path)
        (tmp_path / "train.csv").unlink()
        loaded = load_split_manifests(tmp_path, ("test",))
        assert loaded.train is None and loaded.validation is None  # not read, not empty
        assert loaded.test == bundle.test
        with pytest.raises(FileNotFoundError, match="train.csv"):
            load_split_manifests(tmp_path, ("train", "test"))

    @pytest.mark.parametrize("label", ["Hate", "foo", " hate"])
    def test_manifest_label_outside_the_classes_refused(self, tmp_path, label):
        write_split_manifests(split([example(i) for i in range(10)], seed=1), tmp_path)
        write_csv(tmp_path / "train.csv", [["t:0", "text 0", "x", HATE], ["t:1", "text 1", "x", label]],
                  header=("id", "text", "raw_label", "binary_label"))
        with pytest.raises(ValueError, match=r"train\.csv row 2: binary_label") as caught:
            load_split_manifests(tmp_path)
        assert repr(label) in str(caught.value)

    def test_manifest_empty_label_reads_as_none(self, tmp_path):
        write_split_manifests(split([example(i) for i in range(10)], seed=1), tmp_path)
        write_csv(tmp_path / "test.csv", [["t:0", "text 0", "x", ""]],
                  header=("id", "text", "raw_label", "binary_label"))
        assert load_split_manifests(tmp_path, ("test",)).test[0].binary_label is None

    @pytest.mark.parametrize("sidecar, message", [
        ([1, 2], "not a JSON object"),
        ({"ratios": 5, "stratified": True, "seed": 1}, "ratios must be a list"),
        ({"ratios": [0.6, 0.2, 0.2], "stratified": True}, "seed must be an integer"),
        ({"ratios": [0.6, 0.2, 0.2], "stratified": "yes", "seed": 1}, "stratified"),
        ({"ratios": [0.6, 0.2, 0.2], "seed": 1, "sorted": True}, "no key 'sorted'"),
    ])
    def test_bad_sidecar_refused_with_its_path(self, tmp_path, sidecar, message):
        write_split_manifests(split([example(i) for i in range(10)], seed=1), tmp_path)
        (tmp_path / "split.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match=message) as caught:
            load_split_manifests(tmp_path)
        assert "split.json" in str(caught.value)

    def test_sidecar_counts_are_not_read_back(self, tmp_path):
        write_split_manifests(split([example(i) for i in range(10)], seed=1), tmp_path)
        sidecar = json.loads((tmp_path / "split.json").read_text())
        del sidecar["counts"]
        (tmp_path / "split.json").write_text(json.dumps(sidecar))
        assert load_split_manifests(tmp_path).seed == 1

    def test_manifest_missing_column_named(self, tmp_path):
        write_split_manifests(split([example(i) for i in range(10)], seed=1), tmp_path)
        write_csv(tmp_path / "test.csv", [["t:0", "text 0", "x"]], header=("id", "text", "raw_label"))
        with pytest.raises(ValueError, match="binary_label"):
            load_split_manifests(tmp_path)
