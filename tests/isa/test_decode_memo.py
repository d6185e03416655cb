"""The word memo under ``decode_text``: bounded, exact, and never
holding a word that failed to decode."""

from __future__ import annotations

import random

import pytest

from repro.errors import EncodingError
from repro.isa import decode, decode_text, encoding

BAD_WORD = 0xFC00_0000  # opcode 63: unsupported


def _valid_words(rng: random.Random, count: int) -> list[int]:
    words = []
    while len(words) < count:
        word = rng.getrandbits(32)
        try:
            decode(word)
        except EncodingError:
            continue
        words.append(word)
    return words


def test_memoised_decodes_equal_fresh_decodes(monkeypatch):
    monkeypatch.setattr(encoding, "_decoded_words", {})
    rng = random.Random(7)
    words = _valid_words(rng, 400)
    for start in range(0, 400, 100):
        # overlapping sections: later ones are built partly from the memo
        section = words[start:start + 150] + words[:50]
        assert decode_text(section) == tuple(decode(word) for word in section)
        assert all(encoding._decoded_words[word] == decode(word) for word in section)


def test_a_bad_word_leaves_the_memo_unchanged():
    rng = random.Random(11)
    decode_text(_valid_words(rng, 20))
    before = dict(encoding._decoded_words)
    fresh = _valid_words(rng, 20)
    with pytest.raises(EncodingError):
        decode_text([*fresh, BAD_WORD, *fresh])
    assert encoding._decoded_words == before


def test_the_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(encoding, "DECODE_MEMO_MAX", 64)
    monkeypatch.setattr(encoding, "_decoded_words", {})
    rng = random.Random(3)
    for size in (10, 40, 30, 64, 5, 20):
        section = _valid_words(rng, size)
        assert decode_text(section) == tuple(map(decode, section))
        assert len(encoding._decoded_words) <= 64
        assert set(section) <= encoding._decoded_words.keys()
    # a section of more distinct words than the bound is decoded, not kept
    section = _valid_words(rng, 100)
    assert decode_text(section) == tuple(map(decode, section))
    assert not encoding._decoded_words
