import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hatedetect import embed
from hatedetect.embed import (
    CbowConfig,
    DuplicateToken,
    EmbeddingMatrix,
    Vocabulary,
    LOAD_CHUNK,
    MAX_SENTENCE,
    _draw_negatives,
    _sentence_grads,
    build_vocab,
    nearest,
    train_cbow,
)
from hatedetect.textprep import PAD_INDEX, PAD_TOKEN, UNK_TOKEN

from conftest import make_random_matrix, make_vocab, traced_peak
from oracles import cosine, finite_diff_grad, sentence_loss


class TestVocabulary:
    def test_min_count_excludes(self):
        vocab = build_vocab([["x"], ["y", "y"]], min_count=2)
        assert "x" not in vocab
        assert "y" in vocab

    def test_min_count_one_keeps_all(self):
        vocab = build_vocab([["b", "a", "b"], ["c"]], min_count=1)
        assert sorted(t for t in vocab.tokens[2:]) == ["a", "b", "c"]
        assert vocab.tokens[2] == "b"  # most frequent first

    def test_tie_broken_lexicographically(self):
        # equal frequency: the lexicographically smaller token gets the
        # smaller index
        vocab = build_vocab([["zeta", "alpha"]], min_count=1)
        assert vocab.index["alpha"] == 2
        assert vocab.index["zeta"] == 3

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            build_vocab([], min_count=1)

    def test_all_below_min_count(self):
        with pytest.raises(ValueError):
            build_vocab([["once"]], min_count=2)

    def test_duplicate_token_names_it_and_both_indices(self):
        tokens = [PAD_TOKEN, UNK_TOKEN, "a", "b", "a", "b"]
        with pytest.raises(DuplicateToken, match=re.escape(
                "duplicate token in vocabulary: 'a' at indices 2 and 4")) as caught:
            Vocabulary(tokens, [0] * len(tokens))
        assert (caught.value.token, caught.value.first, caught.value.second) == ("a", 2, 4)

    def test_reserved_indices(self):
        vocab = build_vocab([["a", "b"]], min_count=1)
        assert vocab.tokens[0] == PAD_TOKEN
        assert vocab.tokens[1] == UNK_TOKEN
        assert vocab.index_of("a") >= 2
        assert vocab.index_of("missing") == 1


def similarities(*rows):
    """nearest's similarity of each of rows[1:] to rows[0], in row order."""
    tokens = [f"t{i}" for i in range(len(rows))]
    matrix = EmbeddingMatrix(np.array([[0.0] * len(rows[0])] * 2 + list(rows)), make_vocab(tokens))
    scores = dict(nearest("t0", len(tokens), matrix))
    return [scores[token] for token in tokens[1:]]


class TestCosine:
    """Cosine similarity as nearest reports it."""

    def test_identity(self):
        x = [0.3, -1.2, 2.0]
        assert similarities(x, x) == [pytest.approx(1.0, abs=1e-12)]

    def test_antipodal(self):
        x = np.array([0.5, 2.0, -1.0])
        assert similarities(x, -x) == [pytest.approx(-1.0, abs=1e-12)]

    def test_orthogonal(self):
        assert similarities([1.0, 0.0], [0.0, 1.0]) == [0.0]

    def test_zero_vector_scores_zero(self):
        assert similarities([0.0, 0.0], [1.0, 1.0], [-2.0, 0.5]) == [0.0, 0.0]
        assert similarities([1.0, 1.0], [0.0, 0.0], [-2.0, 0.5])[0] == 0.0

    def test_matches_oracle(self):
        matrix = make_random_matrix([f"t{i}" for i in range(12)], dim=6, seed=4)
        matrix.vectors[5] = 0.0
        for query in ("t0", "t3", "t9"):
            q = matrix.vectors[matrix.vocab.index[query]]
            for token, score in nearest(query, 11, matrix):
                expected = cosine(q, matrix.vectors[matrix.vocab.index[token]])
                assert score == pytest.approx(expected, abs=1e-12)


class TestNearest:
    def matrix(self):
        vectors = np.array(
            [
                [0.0, 0.0],  # pad
                [0.0, 0.0],  # unk
                [1.0, 0.0],  # east
                [0.9, 0.1],  # near_east
                [0.0, 1.0],  # north
                [-1.0, 0.0],  # west
            ]
        )
        return EmbeddingMatrix(vectors, make_vocab(["east", "near_east", "north", "west"]))

    def test_ranking(self):
        neighbors = nearest("east", 3, self.matrix())
        assert [t for t, _ in neighbors] == ["near_east", "north", "west"]
        sims = [s for _, s in neighbors]
        assert sims == sorted(sims, reverse=True)

    def test_excludes_query_pad_unk(self):
        neighbors = nearest("east", 10, self.matrix())
        names = [t for t, _ in neighbors]
        assert "east" not in names
        assert PAD_TOKEN not in names and UNK_TOKEN not in names
        assert len(neighbors) == 3  # V - 3 eligible

    def test_tie_broken_lexicographically(self):
        vectors = np.zeros((5, 2))
        vectors[2] = [1.0, 0.0]  # query "m"
        vectors[3] = [2.0, 0.0]  # "z", cosine 1 with query
        vectors[4] = [3.0, 0.0]  # "a", cosine 1 with query
        matrix = EmbeddingMatrix(vectors, make_vocab(["m", "z", "a"]))
        neighbors = nearest("m", 2, matrix)
        assert [t for t, _ in neighbors] == ["a", "z"]

    def test_out_of_vocabulary(self):
        with pytest.raises(KeyError, match="ghost"):
            nearest("ghost", 1, self.matrix())

    def test_bad_k(self):
        with pytest.raises(ValueError):
            nearest("east", 0, self.matrix())

    def test_scale_invariance(self):
        matrix = make_random_matrix([f"t{i}" for i in range(12)], dim=6, seed=3)
        scaled = EmbeddingMatrix(matrix.vectors * 3.0, matrix.vocab)
        for query in ("t0", "t5", "t11"):
            assert [t for t, _ in nearest(query, 11, matrix)] == [
                t for t, _ in nearest(query, 11, scaled)
            ]


class TestEmbeddingMatrix:
    def test_zero_width_table_refused(self):
        # the table is what sets a classifier's input width
        with pytest.raises(ValueError, match="at least one component"):
            EmbeddingMatrix(np.zeros((4, 0)), make_vocab(["a", "b"]))


class TestTextFormat:
    def test_roundtrip(self, tmp_path):
        matrix = make_random_matrix(["a", "b", "c"], dim=2, seed=1)
        path = tmp_path / "vectors.txt"
        matrix.save_text(path)
        loaded = EmbeddingMatrix.load_text(path)
        assert loaded.vocab.tokens == matrix.vocab.tokens
        assert np.max(np.abs(loaded.vectors - matrix.vectors)) < 1e-6

    def test_bytes_match_per_value_format(self, tmp_path):
        rng = np.random.default_rng(3)
        vectors = rng.normal(0.0, 1.0, (50, 300))
        vectors[PAD_INDEX] = 0.0
        # -0.0, values that print as +-0 at 8 places, and exact binary ties
        # at the 9th place (2**-9 = 0.001953125), which round half to even.
        vectors[1, :7] = [-0.0, 1e-9, -1e-9, 2.0**-9, -(2.0**-9), 3 * 2.0**-9, 1.000000005]
        tokens = [PAD_TOKEN, UNK_TOKEN, *(f"w{i}" for i in range(48))]
        path = tmp_path / "vectors.txt"
        EmbeddingMatrix(vectors, Vocabulary(tokens, [0] * 50)).save_text(path)
        lines = ["50 300\n"] + [
            token + " " + " ".join(f"{x:.8f}" for x in row) + "\n"
            for token, row in zip(tokens, vectors)
        ]
        assert path.read_bytes() == "".join(lines).encode("utf-8")
        assert path.read_text().splitlines()[2].split(" ")[1:7] == [
            "-0.00000000", "0.00000000", "-0.00000000", "0.00195312", "-0.00195312", "0.00585938",
        ]

    def test_header_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5 2\nx 1.0 2.0\ny 1.0 2.0\nz 1.0 2.0\nw 1.0 2.0\n")
        with pytest.raises(ValueError, match="claims 5"):
            EmbeddingMatrix.load_text(path)

    def test_token_with_space_is_arity_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\nfoo bar 1.0 2.0\n")
        with pytest.raises(ValueError, match="fields"):
            EmbeddingMatrix.load_text(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("hello\nx 1.0\n")
        with pytest.raises(ValueError, match="header"):
            EmbeddingMatrix.load_text(path)

    def test_duplicate_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\nsame 1.0\nsame 2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingMatrix.load_text(path)

    @pytest.mark.parametrize("reserved", [False, True])
    def test_duplicate_token_names_both_lines(self, tmp_path, reserved):
        path = tmp_path / "dup.txt"
        head = f"{PAD_TOKEN} 0.0\n{UNK_TOKEN} 0.0\n" if reserved else ""
        path.write_text(f"{3 + 2 * reserved} 1\n{head}foo 1.0\nbar 2.0\nfoo 3.0\n")
        line = 4 + 2 * reserved
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{line}: duplicate token 'foo' (also on line {line - 2})")):
            EmbeddingMatrix.load_text(path)

    def test_token_of_an_added_reserved_row_is_a_duplicate(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text(f"2 1\nfoo 1.0\n{UNK_TOKEN} 2.0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:3: duplicate token '{UNK_TOKEN}' (also reserved as row 1)")):
            EmbeddingMatrix.load_text(path)

    def test_external_file_gains_reserved_rows(self, tmp_path):
        path = tmp_path / "ext.txt"
        path.write_text("2 2\nfoo 1.0 0.0\nbar 0.0 1.0\n")
        loaded = EmbeddingMatrix.load_text(path)
        assert loaded.vocab.tokens[:2] == [PAD_TOKEN, UNK_TOKEN]
        assert "foo" in loaded.vocab

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            EmbeddingMatrix.load_text(tmp_path / "nope.txt")


class TestHostileTextFormat:
    def test_bom_header(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_text("\ufeff2 2\nfoo 1.0 0.0\nbar 0.0 1.0\n", encoding="utf-8")
        loaded = EmbeddingMatrix.load_text(path)
        assert loaded.vocab.tokens[2:] == ["foo", "bar"]
        assert np.array_equal(loaded.vectors[2:], [[1.0, 0.0], [0.0, 1.0]])

    def test_crlf_line_ends(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"2 2\r\nfoo 1.0 0.0\r\nbar 0.0 1.5\r\n")
        loaded = EmbeddingMatrix.load_text(path)
        assert loaded.vocab.tokens[2:] == ["foo", "bar"]
        assert np.array_equal(loaded.vectors[2:], [[1.0, 0.0], [0.0, 1.5]])

    @pytest.mark.parametrize(
        "lines, bad_line",
        [
            (["2 2", "foo 1.0 0.0", "bar 0.0 one"], 3),
            (["3 2", "foo 1.0 0.0", "bar 0.0 1,5", "baz 1.0 x"], 3),
            (["2 1", "foo 1.0", "bar "], 3),  # an empty value, which loadtxt would skip
        ],
    )
    def test_non_numeric_value_names_its_line(self, tmp_path, lines, bad_line):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{bad_line}: value")):
            EmbeddingMatrix.load_text(path)

    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        # Far past the first read of the file, so the line is counted in the file.
        path = tmp_path / "bad.txt"
        lines = [b"2000 1", *(b"t%d 1.0" % i for i in range(2000))]
        lines[1500] = b"t\xff 1.0"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1501: not UTF-8")):
            EmbeddingMatrix.load_text(path)

    @pytest.mark.parametrize("header", ["0 2", "-1 2", "2 0"])
    def test_header_without_rows_or_width_refused(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(header + "\nfoo 1.0 0.0\nbar 0.0 1.0\n")
        with pytest.raises(ValueError, match=re.escape(f"malformed header in {path}")):
            EmbeddingMatrix.load_text(path)

    def test_matches_float_parse_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        tokens = [PAD_TOKEN, UNK_TOKEN, *(f"w{i}" for i in range(48))]
        vectors = rng.normal(0.0, 1.0, (50, 300)) * 10.0 ** rng.integers(-4, 3, (50, 1))
        vectors[PAD_INDEX] = 0.0
        path = tmp_path / "vectors.txt"
        EmbeddingMatrix(vectors, Vocabulary(tokens, [0] * 50)).save_text(path)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        reference = np.array([[float(x) for x in line.split(" ")[1:]] for line in lines])
        loaded = EmbeddingMatrix.load_text(path)
        assert loaded.vocab.tokens == tokens
        assert loaded.vectors.dtype == reference.dtype == np.float64
        assert loaded.vectors.tobytes() == reference.tobytes()


@pytest.fixture(scope="module")
def two_chunk_file(tmp_path_factory):
    """The lines (bytes, with their newlines) of a d=300 vector file that
    load_text reads in more than one chunk, and the line number of the
    second chunk's first row, as load_text numbers it in its errors."""
    path = tmp_path_factory.mktemp("chunks") / "vectors.txt"
    make_random_matrix([f"w{i}" for i in range(698)], dim=300, seed=2).save_text(path)
    assert path.stat().st_size > 2 * LOAD_CHUNK
    first_lines = []
    parse = embed._parse_values

    def recording_parse(path, rows, dim, first_line):
        first_lines.append(first_line)
        return parse(path, rows, dim, first_line)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embed, "_parse_values", recording_parse)
        EmbeddingMatrix.load_text(path)
    assert len(first_lines) >= 2 and first_lines[0] == 2
    return path.read_bytes().splitlines(keepends=True), first_lines[1]


def write_lines(path, lines):
    path.write_bytes(b"".join(lines))
    return path


class TestChunkBoundary:
    """Errors in the first row of load_text's second chunk name that row."""

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda row: re.sub(rb" [^ ]+", b" 1.0x", row, count=1), "value '1.0x'"),
            (lambda row: row.rstrip(b"\n") + b" 1.0\n",
             "expected 1 token + 300 values, got 302 fields"),
            (lambda row: b"\xff" + row, "not UTF-8"),
        ],
        ids=["non_numeric_value", "arity", "not_utf8"],
    )
    def test_bad_row_names_its_line(self, tmp_path, two_chunk_file, damage, message):
        lines, line = two_chunk_file
        lines = list(lines)
        lines[line - 1] = damage(lines[line - 1])
        path = write_lines(tmp_path / "bad.txt", lines)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {message}")):
            EmbeddingMatrix.load_text(path)

    def test_one_row_more_than_the_header_claims(self, tmp_path, two_chunk_file):
        lines, _ = two_chunk_file
        v = len(lines) - 1
        path = write_lines(tmp_path / "bad.txt", [b"%d 300\n" % (v - 1), *lines[1:]])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{v + 1}: header claims {v - 1} rows but file has more")):
            EmbeddingMatrix.load_text(path)


class TestLoadMemory:
    # Measured 3.4-3.8 MB above the table at 2,000-8,000 rows of d=300
    # (numpy 2.4); before chunked reading it was 8 MB at 2,000 rows and
    # 31 MB at 8,000.
    ALLOWANCE = 5 << 20

    @pytest.mark.parametrize("rows", [2000, 8000])
    def test_peak_is_the_table_plus_a_fixed_allowance(self, tmp_path, rows):
        path = tmp_path / "vectors.txt"
        make_random_matrix([f"w{i}" for i in range(rows - 2)], dim=300, seed=rows).save_text(path)
        matrix, peak = traced_peak(lambda: EmbeddingMatrix.load_text(path))
        assert matrix.vectors.shape == (rows, 300)
        assert peak - matrix.vectors.nbytes < self.ALLOWANCE

    def test_header_the_file_cannot_hold_is_refused_before_allocating(self, tmp_path):
        path = tmp_path / "hostile.txt"
        path.write_text("1000000000 300\n" + "".join(
            f"w{i}" + " 0.5" * 300 + "\n" for i in range(2)))

        def load():
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: header claims 1000000000 rows of 300 values")):
                EmbeddingMatrix.load_text(path)

        _, peak = traced_peak(load)
        assert peak < 1 << 20


def assert_sentence_grads_match(sentence, radii, negatives, v=9, dim=5, seed=0):
    """_sentence_grads against central finite differences of sentence_loss,
    within 1e-4 relative error, on random tables."""
    rng = np.random.default_rng(seed)
    sentence, radii, negatives = np.array(sentence), np.array(radii), np.array(negatives)
    tables = {
        "input": rng.normal(0.0, 0.5, (v, dim)),
        "output": rng.normal(0.0, 0.5, (v, dim)),
    }

    def loss(t):
        return sentence_loss(t["input"], t["output"], sentence, radii, negatives)

    numeric = finite_diff_grad(loss, tables, step=1e-5)
    loss_value, input_rows, d_input, output_rows, d_output = _sentence_grads(
        tables["input"], tables["output"], sentence, radii, negatives
    )
    assert loss_value == pytest.approx(loss(tables), abs=1e-12)
    for rows in (input_rows, output_rows):
        assert len(np.unique(rows)) == len(rows)  # each row is written once
    analytic = {"input": np.zeros((v, dim)), "output": np.zeros((v, dim))}
    analytic["input"][input_rows] = d_input
    analytic["output"][output_rows] = d_output
    for name in ("input", "output"):
        denom = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(numeric[name])), 1e-6)
        assert np.max(np.abs(analytic[name] - numeric[name]) / denom) < 1e-4


class TestSentenceObjective:
    def test_gradient_matches_finite_differences(self):
        for trial in range(5):
            assert_sentence_grads_match(
                sentence=[2, 3, 5, 4, 6],
                radii=[1, 3, 2, 1, 5],
                negatives=[[6, 7, 8], [7, 8, 2], [8, 6, 7], [2, 3, 7], [8, 5, 4]],
                seed=trial,
            )

    @pytest.mark.parametrize("sentence, radii, negatives", [
        # a token that occurs twice in the sentence, as center and as context
        ([2, 3, 2, 4], [2, 1, 3, 1], [[5, 6], [7, 8], [6, 5], [8, 7]]),
        # a negative that is also a context word of its own position
        ([2, 3, 4], [1, 2, 1], [[3, 5], [6, 7], [3, 8]]),
        # the same negative drawn for two positions, and twice for one
        ([2, 3, 4, 5], [1, 1, 2, 3], [[7, 7], [7, 6], [8, 6], [7, 8]]),
    ], ids=["token_twice", "negative_in_context", "negative_twice"])
    def test_repeated_rows_accumulate(self, sentence, radii, negatives):
        # a row read at several places must collect every contribution
        assert_sentence_grads_match(sentence, radii, negatives, seed=1)


class TestDrawNegatives:
    def test_never_a_positions_own_center(self):
        # nearly all the noise mass sits on the centers, so clashes are common
        rng = np.random.default_rng(3)
        cumulative = np.cumsum([0.0, 0.0, 0.45, 0.45, 0.1])
        centers = np.array([2, 3, 2, 4, 3] * 20)
        negatives = _draw_negatives(rng, cumulative, centers, 4)
        assert negatives.shape == (100, 4)
        assert not np.any(negatives == centers[:, None])
        assert set(np.unique(negatives)) <= {2, 3, 4}


def tiny_corpus(seed=0, sentences=120, sentence_length=6):
    rng = np.random.default_rng(seed)
    words = [f"v{i:02d}" for i in range(12)]
    return [
        [words[j] for j in rng.integers(0, len(words), sentence_length)] for _ in range(sentences)
    ]


class TestTrainCbow:
    CONFIG = CbowConfig(window=3, dim=8, negative=3, epochs=2, min_count=1, subsample=0.0, seed=11)

    def test_equal_seeds_bitwise_identical(self):
        corpus = tiny_corpus()
        first, _ = train_cbow(corpus, self.CONFIG)
        second, _ = train_cbow(corpus, self.CONFIG)
        assert np.array_equal(first.vectors, second.vectors)

    def test_different_seeds_differ(self):
        corpus = tiny_corpus()
        first, _ = train_cbow(corpus, self.CONFIG)
        other = CbowConfig(window=3, dim=8, negative=3, epochs=2, min_count=1, subsample=0.0, seed=12)
        second, _ = train_cbow(corpus, other)
        assert not np.array_equal(first.vectors, second.vectors)

    def test_pad_row_stays_zero(self):
        matrix, _ = train_cbow(tiny_corpus(), self.CONFIG)
        assert np.all(matrix.vectors[PAD_INDEX] == 0.0)

    def test_history_length(self):
        _, history = train_cbow(tiny_corpus(), self.CONFIG)
        assert len(history) == self.CONFIG.epochs

    def test_single_token_sentence_only(self):
        with pytest.raises(ValueError, match="pair"):
            train_cbow([["lonely"]], CbowConfig(dim=4, min_count=1, subsample=0.0, seed=0))

    def test_short_sentences_skipped_not_fatal(self):
        corpus = tiny_corpus() + [["v00"]]
        matrix, _ = train_cbow(corpus, self.CONFIG)
        assert matrix.vectors.shape[0] == len(matrix.vocab)

    def test_vectors_finite(self):
        matrix, _ = train_cbow(tiny_corpus(), self.CONFIG)
        assert np.all(np.isfinite(matrix.vectors))

    def test_long_line_trains_as_pieces(self):
        line = tiny_corpus(sentences=1, sentence_length=2 * MAX_SENTENCE + 7)[0]
        pieces = [line[i : i + MAX_SENTENCE] for i in range(0, len(line), MAX_SENTENCE)]
        whole, whole_history = train_cbow([line], self.CONFIG)
        cut, cut_history = train_cbow(pieces, self.CONFIG)
        assert whole.vectors.tobytes() == cut.vectors.tobytes()
        assert whole_history == cut_history

    def test_bits_independent_of_blas_threads(self):
        """The per-sentence updates are matrix products, here a few hundred
        rows each, a size OpenBLAS splits across threads; their bits must
        not depend on how many threads BLAS runs them on."""
        code = (
            "import hashlib, numpy as np\n"
            "from hatedetect.embed import CbowConfig, train_cbow\n"
            "rng = np.random.default_rng(4)\n"
            "corpus = [[f'w{j}' for j in rng.zipf(1.5, 256) % 400] for _ in range(12)]\n"
            "config = CbowConfig(window=5, dim=256, negative=5, epochs=1, min_count=1,\n"
            "                    subsample=0.0, seed=2)\n"
            "matrix, _ = train_cbow(corpus, config)\n"
            "print(hashlib.sha256(matrix.vectors.tobytes()).hexdigest())\n"
        )
        src = str(Path(train_cbow.__code__.co_filename).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            digests.add(done.stdout.strip())
        assert len(digests) == 1


class TestCbowConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CbowConfig(window=0)
        with pytest.raises(ValueError):
            CbowConfig(min_lr=0.0)
        with pytest.raises(ValueError):
            CbowConfig(subsample=-1.0)
