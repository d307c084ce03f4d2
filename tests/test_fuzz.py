"""Seeded mutation fuzz of every file the CLI reads back.

Each file of a small trained run is damaged many times over, by flipping,
truncating and inserting bytes; the checkpoint also by flipping bytes
inside params.bin, and by setting each field of each zip record in turn
to 0, to its value plus and minus one, and to its largest value. After
each damage a verb that reads the file runs through cli.main. It must return 0
(the damage left a valid file), 3 naming the file, or 2 for a file that is
not there, and it must never raise. A refusal of a line-oriented text file
(a CSV or a vector file) must also name the line, unless it is one of the
refusals of a whole file listed in WHOLE_FILE_REFUSALS. A damage can
also leave a valid file that no longer matches another one (an id in one
of the score and label files only, a raw label the mapping lost): such a
refusal, listed in CROSS_FILE_REFUSALS, names a line of one of the two.

The seed is fixed, so a failure names a damage that can be replayed.
"""

import random
import re
import struct
import traceback

import pytest

from hatedetect import cli
from hatedetect.corpus import HATE, NON_HATE

from test_cli import write_config, write_dataset

SEED = 2026
MUTATIONS_PER_FILE = 120
# Bytes that mean something to one of the readers, besides random ones.
SPECIAL = b'0123456789-.eE,;:"\'\n\r\t {}[]\\\x00\x85\xff'

# Refusals that concern a whole file, so they name no line.
WHOLE_FILE_REFUSALS = (
    "is missing column",
    "has zero usable rows",
    "has no data rows",
    "malformed header in",
    "header claims",
    "more than its",
    "a value is not a plain decimal number",
)

# Refusals of two files that do not match, naming a line of one of them.
CROSS_FILE_REFUSALS = ("but not in", "unmapped raw label")

# A zip record's fixed part: its signature, then (offset, struct format)
# of each field.
ZIP_RECORDS = {
    b"PK\x03\x04": [(4, "<H"), (6, "<H"), (8, "<H"), (10, "<H"), (12, "<H"), (14, "<I"),
                    (18, "<I"), (22, "<I"), (26, "<H"), (28, "<H")],
    b"PK\x01\x02": [(4, "<H"), (6, "<H"), (8, "<H"), (10, "<H"), (12, "<H"), (14, "<H"),
                    (16, "<I"), (20, "<I"), (24, "<I"), (28, "<H"), (30, "<H"), (32, "<H"),
                    (34, "<H"), (36, "<H"), (38, "<I"), (42, "<I")],
    b"PK\x05\x06": [(4, "<H"), (6, "<H"), (8, "<H"), (10, "<H"), (12, "<I"), (16, "<I"),
                    (20, "<H")],
}


def flip(rng, data):
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        data[rng.randrange(len(data))] ^= rng.randint(1, 255)
    return bytes(data)


def truncate(rng, data):
    return data[: rng.randrange(len(data))]


def insert(rng, data):
    at = rng.randrange(len(data) + 1)
    if rng.random() < 0.5:
        extra = bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
    else:
        extra = bytes(rng.choice(SPECIAL) for _ in range(rng.randint(1, 8)))
    return data[:at] + extra + data[at:]


def zip_field_damages(data):
    """Every field of every zip record in data set in turn to 0, to its
    value plus and minus one, and to its largest value: (what, damaged)."""
    for signature, record_fields in ZIP_RECORDS.items():
        for match in re.finditer(re.escape(signature), data):
            for offset, fmt in record_fields:
                at = match.start() + offset
                (value,) = struct.unpack_from(fmt, data, at)
                top = (1 << (8 * struct.calcsize(fmt))) - 1
                for new in sorted({0, max(value - 1, 0), min(value + 1, top), top} - {value}):
                    damaged = bytearray(data)
                    struct.pack_into(fmt, damaged, at, new)
                    yield f"{signature!r}@{match.start()}+{offset}={new}", bytes(damaged)


def params_bytes(rng, data):
    """Flip bytes inside params.bin, which the loader checks beside its parsing."""
    (name_length, extra_length) = struct.unpack_from("<HH", data, 26)
    start = 30 + name_length + extra_length
    (size,) = struct.unpack_from("<I", data, 22)
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        data[start + rng.randrange(size)] ^= rng.randint(1, 255)
    return bytes(data)


TEXT_MUTATIONS = (flip, truncate, insert)
ZIP_MUTATIONS = (flip, truncate, insert, params_bytes)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A trained and evaluated run; its files are damaged one at a time."""
    root = tmp_path_factory.mktemp("fuzz")
    write_dataset(root / "toy.csv", n=60)
    config = write_config(root)
    (root / "mapping.json").write_text(f'{{"flagged": "{HATE}", "clean": "{NON_HATE}"}}\n')
    mapped = write_config(root, "mapped.json", datasets=[{
        "name": "toy", "path": "toy.csv", "text_column": "tweet", "label_column": "klass",
        "label_mapping_file": "mapping.json"}])
    for verb in ("prepare", "embed-train", "train", "evaluate"):
        assert cli.main([verb, "--config", str(config)]) == 0
    return root, config, mapped


def cases(root, config, mapped):
    """{name: (path, argv, text)}: the damaged file, a verb that reads it,
    and whether the file is line-oriented text."""
    run_dir = root / "run"
    reports = run_dir / "reports"
    common = ["--config", str(config), "--dry-run"]
    return {
        "checkpoint": (run_dir / "models" / "model.ckpt",
                       ["explain", *common, "--text", "w01 scum w02"], False),
        "vectors": (run_dir / "embeddings" / "vectors.txt", ["train", *common], True),
        "dataset": (root / "toy.csv", ["prepare", *common], True),
        "train_split": (run_dir / "prepared" / "train.csv", ["train", *common], True),
        "test_split": (run_dir / "prepared" / "test.csv", ["evaluate", *common], True),
        "split_json": (run_dir / "prepared" / "split.json", ["evaluate", *common], False),
        "run_config": (config, ["prepare", *common], False),
        "label_mapping": (root / "mapping.json",
                          ["prepare", "--config", str(mapped), "--dry-run"], False),
        "scores": (reports / "predictions.csv", ["evaluate", *common, "--predictions",
                   str(reports / "predictions.csv"), "--labels", str(reports / "labels.csv")],
                   True),
        "labels": (reports / "labels.csv", ["evaluate", *common, "--predictions",
                   str(reports / "predictions.csv"), "--labels", str(reports / "labels.csv")],
                   True),
    }


def names_a_line(message: str, path) -> bool:
    """Whether message names a line of path: as "path:N", "path row N", or
    "path: ... (line N)"."""
    pattern = re.escape(str(path)) + r"(:\d+| row \d+|: .*\(line \d+\))"
    return re.search(pattern, message) is not None


def fault(path, argv, text, capsys, others=()):
    """What is wrong with cli.main(argv) once the file at path is damaged,
    or None; text says whether the file is line-oriented text, and others
    are the other files the call may read."""
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except Exception:  # noqa: BLE001 -- any escape is the fault under test
        return "raised: " + traceback.format_exc(limit=-3)
    err = capsys.readouterr().err
    if code == 0 or (code == 2 and "not found" in err):
        return None
    if code != 3:
        return f"exit {code}: {err}"
    if any(refusal in err for refusal in CROSS_FILE_REFUSALS):
        named = any(names_a_line(err, other) for other in (path, *others))
        return None if named else f"line not named: {err}"
    if str(path) not in err:
        return f"file not named: {err}"
    if text and not names_a_line(err, path) and not any(
            refusal in err for refusal in WHOLE_FILE_REFUSALS):
        return f"line not named: {err}"
    return None


def faults_of(run, capsys, name, damages):
    """[(what, fault)] of each (what, damaged bytes) in damages, written in
    turn over the file of case name; the file is restored after."""
    every = cases(*run)
    path, argv, text = every[name]
    others = [other for other, _, _ in every.values() if other != path]
    original = path.read_bytes()
    assert fault(path, argv, text, capsys) is None  # the undamaged file is read
    found = []
    try:
        for what, damaged in damages(original):
            path.write_bytes(damaged)
            problem = fault(path, argv, text, capsys, others)
            if problem:
                found.append((what, problem))
    finally:
        path.write_bytes(original)
    return found


@pytest.mark.parametrize("name", ["checkpoint", "vectors", "dataset", "train_split",
                                  "test_split", "split_json", "run_config", "label_mapping",
                                  "scores", "labels"])
def test_random_damage_is_read_or_refused_by_name(run, capsys, name):
    rng = random.Random(f"{SEED}:{name}")
    mutations = ZIP_MUTATIONS if name == "checkpoint" else TEXT_MUTATIONS

    def damages(original):
        for trial in range(MUTATIONS_PER_FILE):
            mutation = rng.choice(mutations)
            yield f"{trial} {mutation.__name__}", mutation(rng, original)

    found = faults_of(run, capsys, name, damages)
    assert not found, "\n".join(map(str, found))


def test_every_zip_field_damage_is_read_or_refused_by_name(run, capsys):
    found = faults_of(run, capsys, "checkpoint", zip_field_damages)
    assert not found, "\n".join(map(str, found))
