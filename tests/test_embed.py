import re

import numpy as np
import pytest

from hatedetect.embed import (
    CbowConfig,
    EmbeddingMatrix,
    Vocabulary,
    _pair_grads,
    build_vocab,
    nearest,
    train_cbow,
)
from hatedetect.textprep import PAD_INDEX, PAD_TOKEN, UNK_TOKEN

from conftest import make_random_matrix, make_vocab
from oracles import cosine, finite_diff_grad, pair_loss


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


class TestPairObjective:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        v, dim = 9, 5
        context = np.array([2, 3, 5])
        center = 4
        negatives = np.array([6, 7, 8])
        for trial in range(5):
            tables = {
                "input": rng.normal(0.0, 0.5, (v, dim)),
                "output": rng.normal(0.0, 0.5, (v, dim)),
            }

            def loss(t):
                return pair_loss(t["input"], t["output"], context, center, negatives)

            numeric = finite_diff_grad(loss, tables, step=1e-5)
            loss_value, d_context, d_targets, targets = _pair_grads(
                tables["input"], tables["output"], context, center, negatives
            )
            assert loss_value == pytest.approx(loss(tables), abs=1e-12)
            analytic_in = np.zeros((v, dim))
            np.add.at(analytic_in, context, np.broadcast_to(d_context, (len(context), dim)))
            analytic_out = np.zeros((v, dim))
            np.add.at(analytic_out, targets, d_targets)
            for analytic, numeric_grad in ((analytic_in, numeric["input"]), (analytic_out, numeric["output"])):
                denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric_grad)), 1e-6)
                assert np.max(np.abs(analytic - numeric_grad) / denom) < 1e-4

    def test_overlapping_rows_accumulate(self):
        # a word appearing both in the context and among the negatives must
        # collect both gradient contributions
        rng = np.random.default_rng(1)
        v, dim = 6, 4
        context = np.array([2, 3])
        center = 4
        negatives = np.array([3, 5])  # index 3 overlaps the context
        tables = {
            "input": rng.normal(0.0, 0.5, (v, dim)),
            "output": rng.normal(0.0, 0.5, (v, dim)),
        }

        def loss(t):
            return pair_loss(t["input"], t["output"], context, center, negatives)

        numeric = finite_diff_grad(loss, tables, step=1e-5)
        _, d_context, d_targets, targets = _pair_grads(
            tables["input"], tables["output"], context, center, negatives
        )
        analytic_out = np.zeros((v, dim))
        np.add.at(analytic_out, targets, d_targets)
        denom = np.maximum(np.maximum(np.abs(analytic_out), np.abs(numeric["output"])), 1e-6)
        assert np.max(np.abs(analytic_out - numeric["output"]) / denom) < 1e-4


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


class TestCbowConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CbowConfig(window=0)
        with pytest.raises(ValueError):
            CbowConfig(min_lr=0.0)
        with pytest.raises(ValueError):
            CbowConfig(subsample=-1.0)
