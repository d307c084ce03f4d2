import numpy as np
import pytest

import oracles
from hatedetect import textprep
from hatedetect.textprep import (
    NEGATORS,
    PAD_INDEX,
    UNK_INDEX,
    PipelineConfig,
    default_pipeline,
    default_stopwords,
    encode,
    expand_contractions,
    preprocess,
    sequence_lengths,
)

from conftest import make_vocab


def test_cant_expands_to_can_not():
    assert expand_contractions("can't") == "can not"
    assert expand_contractions("I Can't stop") == "I can not stop"


def test_cant_pipeline_keeps_not():
    # "can" falls to the stopword filter, "not" always survives
    assert preprocess("can't", PipelineConfig()) == ["not"]
    no_stopwords = PipelineConfig(stopwords=frozenset())
    assert preprocess("can't", no_stopwords) == ["can", "not"]


def test_shouting_plural_kept_verbatim():
    assert preprocess("They are IDIOTS!!!", PipelineConfig()) == ["idiots"]


def test_no_stemming():
    assert preprocess("blacks", PipelineConfig()) == ["blacks"]


def test_urls_mentions_hashtags():
    config = PipelineConfig()
    tokens = preprocess("read https://example.com/x?a=1 from @some_user #Hateful2 ok", config)
    assert "hateful2" in tokens
    assert all("http" not in t and "@" not in t and "#" not in t for t in tokens)
    # glued punctuation splits into two tokens
    assert preprocess("black!!white", PipelineConfig(stopwords=frozenset())) == ["black", "white"]


def test_curly_apostrophe_folds():
    assert preprocess("can’t", PipelineConfig()) == ["not"]


def test_negation_preserved_in_context():
    for text in ["you can't do this", "CAN'T touch", "they can't, they won't"]:
        assert "not" in preprocess(text, PipelineConfig())


def test_lowercase_off_keeps_case():
    config = PipelineConfig(lowercase=False, stopwords=frozenset())
    assert preprocess("Dog barks", config) == ["Dog", "barks"]


def test_idempotence():
    config = PipelineConfig()
    texts = [
        "They can't be SERIOUS!!! see https://t.co/abc @you #GoHome",
        "it's a no-brainer, isn't it?",
        "plain words only",
        "numbers 123 and sym&bols",
        "",
        "@only_mention",
    ]
    for text in texts:
        once = preprocess(text, config)
        again = preprocess(" ".join(once), config)
        assert again == once


HOSTILE_FRAGMENTS = (
    "naïve", "İstanbul", "STRASSE", "straße", "日本語", "🙂", "ǅemal", "x\u0307",
    "can’t", "WON’T", "it’s", "can't", "y'all", "shouldn't've", "İwon't", "Isn't",
    "https://t.co/abc?x=1", "www.example.org/a_b", "HTTP://X.Y", "@some_user", "@ünï",
    "#GoHome", "#tag2", "&amp;", "!!!", "-", "'", "’", "123", "a1b2", "the", "not",
    "\x1c", "\u2028", "\u00a0", "\t", "\r\n",
)
SEPARATORS = (" ", "", "\x1c", "\u2028", "\u3000", "\n", ",")


def test_preprocess_keeps_any_subsequence_of_its_output():
    # Explanations score subsequences of a text's tokens joined by spaces;
    # with punctuation stripped, every such text preprocesses back to
    # exactly those tokens, so no sample is re-tokenized.
    rng = np.random.default_rng(0)
    configs = [
        PipelineConfig(lowercase=lowercase, expand_contractions=expand, stopwords=stopwords)
        for lowercase in (True, False)
        for expand in (True, False)
        for stopwords in (default_stopwords(), frozenset())
    ]
    for _ in range(300):
        n = int(rng.integers(1, 12))
        text = ""
        for j in rng.integers(0, len(HOSTILE_FRAGMENTS), n):
            text += HOSTILE_FRAGMENTS[j] + SEPARATORS[int(rng.integers(0, len(SEPARATORS)))]
        for config in configs:
            tokens = preprocess(text, config)
            for _ in range(3):
                sub = [t for t in tokens if rng.random() < 0.6]
                assert preprocess(" ".join(sub), config) == sub, (text, config)


# Characters that Unicode case folding, and only it, maps to an ASCII
# letter of some contraction: "İ" and "ı" to "i", "ſ" to "s".
UNICODE_FOLDS = ("İ", "ı", "ſ")
WORD_CHARS = ("é", "ß", "日本", "ǅ", "x\u0307", "_", "7", *UNICODE_FOLDS)
GAPS = (" ", " ", " ", "", "\t", "\n", "\r\n", "\u00a0", "\u2028", "\u3000", "\x1c", ",")


def _random_case(rng, word):
    return "".join(c.upper() if rng.random() < 0.5 else c for c in word)


def hostile_text(rng, n_pieces):
    """Contractions in mixed case, curly and doubled apostrophes, apostrophes
    beside punctuation and at chunk edges, non-ASCII word characters glued
    on, URLs and mentions holding an apostrophe, and plain words, joined by
    assorted whitespace (tabs, newlines, NBSP) or glued together."""
    keys = sorted(oracles.contractions()[1])
    text = ""
    for _ in range(n_pieces):
        key = _random_case(rng, keys[int(rng.integers(0, len(keys)))])
        kind = int(rng.integers(0, 10))
        if kind == 0:
            piece = key.replace("'", "’" if rng.random() < 0.5 else "''")
        elif kind == 1:
            left, right = [("(", ")"), ("'", "'"), ('"', '."'), ("", "'s"), ("-", "!"), ("", "")][
                int(rng.integers(0, 6))]
            piece = left + key + right
        elif kind == 2:
            piece = ["'", "''", "'t", key.split("'")[0] + "'", "'" + key.split("'")[1]][
                int(rng.integers(0, 5))]
        elif kind == 3:
            glue = WORD_CHARS[int(rng.integers(0, len(WORD_CHARS)))]
            piece = glue + key if rng.random() < 0.5 else key + glue
        elif kind == 4:
            piece = key.replace(key[int(rng.integers(0, len(key)))],
                                UNICODE_FOLDS[int(rng.integers(0, 3))], 1)
        elif kind == 5:
            piece = ["https://x.co/", "www.", "@", "HTTP://t.co/a?q=", "#"][
                int(rng.integers(0, 5))] + key
        elif kind in (6, 7):
            piece = ["the", "a", "IS", "not", "i", "idiots", "scum", "w07", "123", "&amp;"][
                int(rng.integers(0, 10))]
        else:
            piece = key
        text += piece + GAPS[int(rng.integers(0, len(GAPS)))]
    return text


@pytest.fixture(scope="module")
def hostile_texts():
    rng = np.random.default_rng(17)
    sizes = (1, 4, 12, 60, 400)  # long enough to outgrow a bounded read
    return [hostile_text(rng, int(rng.integers(1, sizes[i % len(sizes)] + 1)))
            for i in range(600)]


def test_contractions_match_the_whole_text_oracle(hostile_texts):
    crashed = 0
    for text in hostile_texts:
        folded = text.replace("’", "'")
        try:
            expected = oracles.expand_contractions(folded)
        except KeyError:
            # The whole-text pass only fails on a Unicode case variant,
            # which the ASCII-folding pattern leaves as written.
            assert any(c in folded for c in UNICODE_FOLDS), text
            crashed += 1
            continue
        assert expand_contractions(folded) == expected, text
    assert 0 < crashed < len(hostile_texts) // 2


@pytest.mark.parametrize("text", ["İ'm here", "let'ſ go", "ı'm", "IT'ſ", "İsn't"])
def test_unicode_case_variants_are_left_as_written(text):
    assert expand_contractions(text) == text
    assert preprocess(text, PipelineConfig(stopwords=frozenset()))  # no KeyError


def test_contraction_case_folding_is_ascii_only():
    assert expand_contractions("I'M here") == "i am here"
    assert expand_contractions("IT's, Let'S") == "it is, let us"
    assert expand_contractions("éI'm") == "éI'm"  # no word boundary before the I


@pytest.mark.parametrize("chars_per_token", [textprep.CHARS_PER_TOKEN, 1])
def test_bounded_preprocess_is_a_prefix_of_the_whole(hostile_texts, monkeypatch, chars_per_token):
    # One character per token cuts the text at many more places.
    monkeypatch.setattr(textprep, "CHARS_PER_TOKEN", chars_per_token)
    configs = [PipelineConfig(), PipelineConfig(lowercase=False, stopwords=frozenset()),
               PipelineConfig(expand_contractions=False, strip_punctuation=False)]
    for text in hostile_texts:
        for config in configs:
            try:
                whole = preprocess(text, config)
            except KeyError:
                pytest.fail(f"preprocess raised on {text!r}")
            for limit in (1, 7, 50):
                assert preprocess(text, config, limit=limit) == whole[:limit], (text, limit)


def test_bounded_preprocess_rejects_a_bad_limit():
    with pytest.raises(ValueError, match="limit"):
        preprocess("some words", PipelineConfig(), limit=0)


def test_text_without_apostrophe_never_reaches_the_contraction_pattern(hostile_texts, monkeypatch):
    config = PipelineConfig()
    plain = [t for t in hostile_texts if "'" not in t and "’" not in t]
    expected = [preprocess(text, config) for text in plain]

    class Refusing:
        def sub(self, *args):
            raise AssertionError("the contraction pattern ran")

    table = oracles.contractions()[1]
    monkeypatch.setattr(textprep, "_contractions", lambda: (Refusing(), table))
    assert len(plain) >= 20
    assert [preprocess(text, config) for text in plain] == expected
    with pytest.raises(AssertionError, match="pattern ran"):
        preprocess("can't", config)


def test_default_pipeline_is_built_once(monkeypatch):
    assert default_pipeline() is default_pipeline() == PipelineConfig()
    built = []
    monkeypatch.setattr(PipelineConfig, "__post_init__", lambda self: built.append(self))
    assert preprocess("They are IDIOTS!!!") == ["idiots"]
    assert built == []


def test_default_stopwords_exclude_negators():
    words = default_stopwords()
    assert not (NEGATORS & words)
    assert {"they", "are", "can", "the"} <= words


def test_config_rejects_negator_stopwords():
    with pytest.raises(ValueError, match="negators"):
        PipelineConfig(stopwords=frozenset({"the", "not"}))


def test_config_rejects_bad_max_len():
    with pytest.raises(ValueError):
        PipelineConfig(max_len=0)


def test_config_roundtrip():
    config = PipelineConfig(lowercase=False, max_len=7, stopwords=frozenset({"the", "a"}))
    assert PipelineConfig(**config.to_dict()) == config


def test_config_from_partial_dict():
    config = PipelineConfig(**{"stopwords": ["the", "a"], "max_len": 7})
    assert config == PipelineConfig(stopwords=frozenset({"the", "a"}), max_len=7)
    assert config.to_dict()["stopwords"] == ["a", "the"]
    assert PipelineConfig(**{}) == PipelineConfig()


def test_encode_all_padding():
    vocab = make_vocab(["alpha", "beta"])
    assert encode([], vocab, 4).tolist() == [PAD_INDEX] * 4


def test_encode_truncates_tail():
    vocab = make_vocab(["a", "b", "c", "d", "e", "f"])
    tokens = ["a", "b", "c", "d", "e", "f"]
    encoded = encode(tokens, vocab, 4)
    assert encoded.tolist() == [vocab.index[t] for t in tokens[:4]]


def test_encode_unknown_token():
    vocab = make_vocab(["known"])
    encoded = encode(["known", "mystery"], vocab, 3)
    assert encoded.tolist() == [vocab.index["known"], UNK_INDEX, PAD_INDEX]


def test_encode_rejects_bad_max_len():
    with pytest.raises(ValueError):
        encode(["x"], make_vocab(["x"]), 0)


def test_encode_length_and_range_property():
    vocab = make_vocab([f"t{i}" for i in range(20)])
    rng = np.random.default_rng(0)
    pool = [f"t{i}" for i in range(20)] + ["oov1", "oov2"]
    for _ in range(50):
        n = int(rng.integers(0, 30))
        tokens = [pool[j] for j in rng.integers(0, len(pool), n)]
        max_len = int(rng.integers(1, 15))
        encoded = encode(tokens, vocab, max_len)
        assert encoded.shape == (max_len,)
        assert encoded.max(initial=0) < len(vocab)
        assert encoded.min(initial=0) >= 0
        assert sequence_lengths(encoded[None]).tolist() == [min(n, max_len)]


def test_sequence_lengths_stop_at_the_trailing_padding():
    token_ids = np.array([[3, 4, 0, 0], [0, 5, 0, 0], [0, 0, 0, 0], [2, 2, 2, 2]])
    assert sequence_lengths(token_ids).tolist() == [2, 2, 0, 4]


def test_determinism():
    config = PipelineConfig()
    text = "Repeat me EXACTLY, can't you? #tag"
    assert preprocess(text, config) == preprocess(text, config)
