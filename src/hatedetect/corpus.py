"""Dataset ingestion, binary label collapsing, balanced combining, splits.

All randomness is driven by explicit seeds, and every function here is a
pure computation over its inputs, so repeated runs are reproducible.
"""

from __future__ import annotations

import csv
import logging
from collections import Counter
from dataclasses import dataclass, fields
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from .atomic import _check, _section, not_utf8, read_json_object, write_csv, write_json

log = logging.getLogger(__name__)

HATE = "hate"
NON_HATE = "nonhate"
BINARY_LABELS = (HATE, NON_HATE)

SPLIT_NAMES = ("train", "validation", "test")
DEFAULT_RATIOS = (0.6, 0.2, 0.2)


@dataclass(frozen=True)
class LabeledExample:
    """One text with its source label and, once collapsed, a binary label."""

    id: str
    text: str
    raw_label: str
    binary_label: str | None = None


@dataclass(frozen=True)
class DatasetSpec:
    """Where a dataset lives and which columns carry text and label."""

    name: str
    path: str
    text_column: str
    label_column: str
    label_mapping: dict | None = None

    def __post_init__(self):
        validate_mapping(self.label_mapping or {})


@dataclass(frozen=True)
class SplitConfig:
    """Train/validation/test ratios, three positive numbers that sum to 1."""

    ratios: tuple = DEFAULT_RATIOS
    stratified: bool = True

    def __post_init__(self):
        if len(self.ratios) != 3 or not all(isinstance(r, (int, float)) and r > 0
                                            for r in self.ratios):
            raise ValueError(f"ratios must be three positive numbers, got {self.ratios!r}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"ratios must sum to 1, got {sum(self.ratios)!r}")
        object.__setattr__(self, "ratios", tuple(map(float, self.ratios)))


@dataclass(frozen=True)
class CombineConfig:
    """Combine datasets to equal class counts, at most per_class_cap each."""

    balanced: bool = True
    per_class_cap: int | None = None

    def __post_init__(self):
        if self.per_class_cap is not None and self.per_class_cap < 1:
            raise ValueError(f"per_class_cap must be >= 1, got {self.per_class_cap}")


@dataclass(frozen=True)
class ClassCounts:
    hate: int
    nonhate: int

    @property
    def total(self) -> int:
        return self.hate + self.nonhate

    def to_dict(self) -> dict:
        return {"hate": self.hate, "nonhate": self.nonhate, "total": self.total}


@dataclass(frozen=True)
class SplitBundle:
    """The three parts of a split. A part that load_split_manifests was not
    asked to read is None, not an empty list."""

    train: list | None
    validation: list | None
    test: list | None
    ratios: tuple
    seed: int
    stratified: bool

    def parts(self):
        return (self.train, self.validation, self.test)


def load_dataset(spec: DatasetSpec) -> list[LabeledExample]:
    """Read the CSV dataset at spec.path into LabeledExamples.

    Ids are assigned deterministically from row order as "<name>:<row>".
    Rows whose text is empty after trimming are skipped; the skip count is
    logged. With a label mapping in spec, a kept row's raw label that it
    does not map is an error that names the file and the line.
    """
    path = Path(spec.path)
    examples = []
    skipped = 0
    rows = _read_columns(path, (spec.text_column, spec.label_column), "dataset")
    for row_number, (text, raw_label) in enumerate(rows):
        if not text.strip():
            skipped += 1
            continue
        raw_label = raw_label.strip()
        if spec.label_mapping is not None and raw_label not in spec.label_mapping:
            raise ValueError(f"dataset {path}:{_row_line(path, row_number)}: "
                             f"unmapped raw label {raw_label!r}")
        examples.append(LabeledExample(id=f"{spec.name}:{row_number}", text=text,
                                       raw_label=raw_label))
    if skipped:
        log.info("skipped %d empty-text rows while loading %s", skipped, path)
    if not examples:
        raise ValueError(f"dataset {path} has zero usable rows")
    return examples


def _read_columns(path: Path, columns, what: str) -> list[tuple]:
    """The named columns (two or more) of each row of a CSV file, as tuples.

    A UTF-8 byte-order mark is dropped, blank lines are skipped (so they
    take no row number), a name the header repeats reads its last column,
    and a field past the end of a short row reads as "". A missing file, a
    column the header lacks, or a row the csv module cannot read (a field
    over its size limit) is an error that names the file as `what`; a byte
    that is not UTF-8 is an error that names the file and its line.
    """
    if not path.exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            position = {name: i for i, name in enumerate(header)}
            for column in columns:
                if column not in position:
                    raise ValueError(f"{what} {path} is missing column {column!r} (has {header})")
            wanted = [position[column] for column in columns]
            pick = itemgetter(*wanted)
            width = max(wanted) + 1
            rows = []
            for row in reader:
                if len(row) >= width:
                    rows.append(pick(row))
                elif row:
                    rows.append(tuple(row[i] if i < len(row) else "" for i in wanted))
        except csv.Error as exc:
            raise ValueError(f"{what} {path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    return rows


def _row_line(path: Path, index: int) -> int:
    """The line on which data row `index` (from 0, as _read_columns counts
    rows) of a CSV file ends. The file is read again, so call this only to
    name the line of an error."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        next(reader, None)  # the header
        for i, _ in enumerate(filter(None, reader)):  # a blank line is no row
            if i == index:
                return reader.line_num
    raise ValueError(f"{path} has no data row {index}")


def validate_mapping(mapping: dict) -> None:
    for raw, binary in mapping.items():
        if binary not in BINARY_LABELS:
            raise ValueError(
                f"label mapping sends {raw!r} to {binary!r}; expected one of {BINARY_LABELS}"
            )


def collapse_labels(examples, mapping: dict) -> tuple[list[LabeledExample], ClassCounts]:
    """Attach binary labels via the mapping; returns (examples, class counts).

    The mapping must cover every raw label that occurs; an unmapped label
    raises an error naming it.
    """
    validate_mapping(mapping)
    collapsed = []
    hate = nonhate = 0
    for example in examples:
        if example.raw_label not in mapping:
            raise ValueError(f"unmapped raw label {example.raw_label!r} (example {example.id})")
        binary = mapping[example.raw_label]
        if binary == HATE:
            hate += 1
        else:
            nonhate += 1
        collapsed.append(LabeledExample(example.id, example.text, example.raw_label, binary))
    return collapsed, ClassCounts(hate, nonhate)


def stats(dataset) -> ClassCounts:
    """Per-class counts of a collapsed dataset."""
    counter = Counter()
    for example in dataset:
        if example.binary_label is None:
            raise ValueError(f"example {example.id} has no binary label; collapse first")
        counter[example.binary_label] += 1
    return ClassCounts(counter[HATE], counter[NON_HATE])


def combine_balanced(datasets, seed: int, per_class_cap: int | None = None):
    """Merge collapsed datasets and subsample to exactly equal class counts.

    The per-class size is the minority-class count of the union (optionally
    capped by per_class_cap). Selection is without replacement from the
    seeded generator, independent of input ordering.
    """
    CombineConfig(per_class_cap=per_class_cap)  # refuses a cap below 1
    union = [example for dataset in datasets for example in dataset]
    if not union:
        raise ValueError("no examples to combine")
    ids = Counter(example.id for example in union)
    duplicates = [i for i, n in ids.items() if n > 1]
    if duplicates:
        raise ValueError(f"duplicate example ids across datasets: {duplicates[:5]}")
    by_class = {HATE: [], NON_HATE: []}
    for example in union:
        if example.binary_label is None:
            raise ValueError(f"example {example.id} has no binary label; collapse first")
        by_class[example.binary_label].append(example)
    for label in BINARY_LABELS:
        if not by_class[label]:
            raise ValueError(f"class {label!r} absent from the union")
        by_class[label].sort(key=lambda example: example.id)
    size = min(len(by_class[HATE]), len(by_class[NON_HATE]))
    if per_class_cap is not None:
        size = min(size, per_class_cap)
    rng = np.random.default_rng(seed)
    selected = []
    for label in BINARY_LABELS:
        pool = by_class[label]
        picks = rng.permutation(len(pool))[:size]
        selected.extend(pool[i] for i in picks)
    order = rng.permutation(len(selected))
    return [selected[i] for i in order]


def _part_sizes(n: int, ratios) -> list[int]:
    # Cumulative rounding keeps each part within 1 of n * ratio and sums to n.
    boundaries = [int(np.floor(n * c + 0.5)) for c in np.cumsum(ratios)]
    boundaries[-1] = n
    sizes = []
    previous = 0
    for b in boundaries:
        sizes.append(b - previous)
        previous = b
    return sizes


def split(dataset, ratios=DEFAULT_RATIOS, seed: int = 0, stratified: bool = True) -> SplitBundle:
    """Partition a dataset into train/validation/test.

    With stratified=True each class is split by the same ratios, so class
    balance is stable across parts. Deterministic per seed.
    """
    ratios = SplitConfig(ratios, stratified).ratios
    if len(dataset) < 3:
        raise ValueError(f"dataset too small to split: {len(dataset)} examples")
    if stratified:
        strata = {}
        for example in dataset:
            if example.binary_label is None:
                raise ValueError("stratified split requires collapsed labels")
            strata.setdefault(example.binary_label, []).append(example)
        groups = [strata[label] for label in BINARY_LABELS if label in strata]
    else:
        groups = [list(dataset)]
    rng = np.random.default_rng(seed)
    parts = ([], [], [])
    for group in groups:
        group = sorted(group, key=lambda example: example.id)
        order = rng.permutation(len(group))
        sizes = _part_sizes(len(group), ratios)
        start = 0
        for part, size in zip(parts, sizes):
            part.extend(group[i] for i in order[start : start + size])
            start += size
    shuffled = []
    for part in parts:
        order = rng.permutation(len(part))
        shuffled.append([part[i] for i in order])
    return SplitBundle(*shuffled, ratios=ratios, seed=seed, stratified=stratified)


def write_split_manifests(bundle: SplitBundle, directory) -> None:
    """Write train/validation/test CSVs plus a JSON sidecar with seed/ratios."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = [f.name for f in fields(LabeledExample)]
    for name, part in zip(SPLIT_NAMES, bundle.parts()):
        # a None label is written as ""
        write_csv(directory / f"{name}.csv", header, map(attrgetter(*header), part))
    sidecar = {
        "seed": bundle.seed,
        "ratios": list(bundle.ratios),
        "stratified": bundle.stratified,
        "counts": {
            name: stats(part).to_dict() for name, part in zip(SPLIT_NAMES, bundle.parts())
        },
    }
    write_json(directory / "split.json", sidecar)


def load_split_manifests(directory, parts=SPLIT_NAMES) -> SplitBundle:
    """Rebuild a SplitBundle from manifests written by write_split_manifests.

    Only the named parts are read; the bundle's other parts are None. A
    binary label other than the two classes or "" is refused.
    """
    directory = Path(directory)
    sidecar_path = directory / "split.json"
    sidecar = read_json_object(sidecar_path, "split sidecar")
    seed = _check(sidecar.pop("seed", None), "int", f"{sidecar_path}: seed")
    sidecar.pop("counts", None)
    config = _section(sidecar, str(sidecar_path), SplitConfig)
    header = [f.name for f in fields(LabeledExample)]
    loaded = {}
    for name in parts:
        path = directory / f"{name}.csv"
        examples = loaded[name] = []
        rows = _read_columns(path, header, "split manifest")
        for row, (id_, text, raw_label, binary_label) in enumerate(rows, 1):
            if binary_label and binary_label not in BINARY_LABELS:
                raise ValueError(f"split manifest {path} row {row}: binary_label "
                                 f"{binary_label!r} is not one of {BINARY_LABELS} or empty")
            examples.append(LabeledExample(id_, text, raw_label, binary_label or None))
    return SplitBundle(*(loaded.get(name) for name in SPLIT_NAMES), ratios=config.ratios,
                       seed=seed, stratified=config.stratified)
