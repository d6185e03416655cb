"""Executable image tests: queries, bounds, serialization round trip,
malformed images, immutability."""

import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from repro.binary import Executable, Symbol
from repro.compiler import compile_source
from repro.errors import LinkError
from repro.isa import assemble
from repro.programs import get_benchmark

_SOURCE = """
.text
_start:
    jal main
    break
main:
    li $v0, 0
    jr $ra
helper:
    jr $ra
.data
table: .word 1, 2, 3
bytes: .byte 9
"""


@pytest.fixture()
def exe():
    return assemble(_SOURCE)


class TestQueries:
    def test_function_symbols_sorted(self, exe):
        names = [s.name for s in exe.function_symbols()]
        assert names == ["_start", "main", "helper"]

    def test_function_bounds(self, exe):
        start, end = exe.function_bounds("main")
        assert start == exe.symbols["main"].address
        assert end == exe.symbols["helper"].address

    def test_last_function_bounds_end_at_text_end(self, exe):
        _, end = exe.function_bounds("helper")
        assert end == exe.text_end

    def test_word_at(self, exe):
        assert exe.word_at(exe.text_base) == exe.text_words[0]

    def test_word_at_rejects_unaligned(self, exe):
        with pytest.raises(LinkError):
            exe.word_at(exe.text_base + 2)

    def test_word_at_rejects_out_of_range(self, exe):
        with pytest.raises(LinkError):
            exe.word_at(exe.text_end)

    def test_unknown_function(self, exe):
        with pytest.raises(LinkError):
            exe.function_bounds("nope")

    def test_data_symbols_not_text(self, exe):
        assert not exe.symbols["table"].is_text
        assert exe.symbols["_start"].is_text


class TestSerialization:
    def test_round_trip(self, exe):
        blob = exe.to_bytes()
        restored = Executable.from_bytes(blob)
        assert restored.entry == exe.entry
        assert restored.text_words == exe.text_words
        assert restored.data == exe.data
        assert restored.symbols == exe.symbols

    def test_bad_magic_rejected(self, exe):
        blob = bytearray(exe.to_bytes())
        blob[0] = ord("X")
        with pytest.raises(LinkError, match="magic"):
            Executable.from_bytes(bytes(blob))

    def test_truncated_rejected(self):
        with pytest.raises(LinkError):
            Executable.from_bytes(b"SX")


@pytest.fixture(scope="module")
def brev_image() -> bytes:
    """A real compiled image, its last symbol's name at the very end."""
    return compile_source(get_benchmark("brev").source, opt_level=1).to_bytes()


class TestMalformedImages:
    def test_every_proper_prefix_is_rejected(self, brev_image):
        for length in range(len(brev_image)):
            with pytest.raises(LinkError):
                Executable.from_bytes(brev_image[:length])

    @pytest.mark.parametrize("junk", [b"\0", b"\xde\xad\xbe\xef"])
    def test_trailing_bytes_are_rejected(self, brev_image, junk):
        with pytest.raises(LinkError, match="trailing"):
            Executable.from_bytes(brev_image + junk)

    def test_name_that_is_not_utf8_is_rejected(self, brev_image):
        blob = bytearray(brev_image)
        blob[-1] = 0xFF          # a byte of the last symbol's name
        with pytest.raises(LinkError, match="UTF-8"):
            Executable.from_bytes(bytes(blob))

    def test_the_whole_image_still_parses(self, brev_image):
        assert Executable.from_bytes(brev_image).to_bytes() == brev_image


class TestImmutability:
    def test_fields_cannot_be_assigned(self, exe):
        with pytest.raises(FrozenInstanceError):
            exe.entry = 0
        with pytest.raises(FrozenInstanceError):
            exe.text_words = ()

    def test_text_and_data_are_normalized(self, exe):
        fields = dict(entry=exe.entry, text_base=exe.text_base,
                      data_base=exe.data_base, symbols=dict(exe.symbols))
        from_list = Executable(text_words=list(exe.text_words),
                               data=bytearray(exe.data), **fields)
        from_tuple = Executable(text_words=tuple(exe.text_words),
                                data=bytes(exe.data), **fields)
        assert type(from_list.text_words) is tuple
        assert type(from_list.data) is bytes
        assert from_list == from_tuple
        assert from_list.digest == from_tuple.digest

    def test_digest_is_computed_once(self, exe, monkeypatch):
        calls = []
        original = Executable.to_bytes
        monkeypatch.setattr(Executable, "to_bytes",
                            lambda self: calls.append(self) or original(self))
        assert exe.digest == exe.digest
        assert len(calls) == 1

    def test_round_trips_give_equal_binaries_with_equal_digests(self, exe):
        unpickled = pickle.loads(pickle.dumps(exe))   # before any digest
        digest = exe.digest
        for copy in (unpickled, Executable.from_bytes(exe.to_bytes()),
                     pickle.loads(pickle.dumps(exe))):
            assert copy == exe
            assert copy.digest == digest

    def test_distinct_images_have_distinct_digests(self, exe):
        other = Executable.from_bytes(exe.to_bytes())
        assert other.digest == exe.digest
        moved = Executable(entry=exe.entry + 4, text_base=exe.text_base,
                           text_words=exe.text_words, data_base=exe.data_base,
                           data=exe.data, symbols=exe.symbols)
        assert moved.digest != exe.digest


names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=12
)


@given(
    entry=st.integers(0, 0xFFFF_FFFC),
    words=st.lists(st.integers(0, 0xFFFF_FFFF), max_size=40),
    data=st.binary(max_size=64),
    sym_items=st.dictionaries(names, st.tuples(st.integers(0, 0xFFFF_FFFF), st.booleans()), max_size=8),
)
def test_serialization_round_trip_property(entry, words, data, sym_items):
    symbols = {
        name: Symbol(name=name, address=addr, is_text=is_text)
        for name, (addr, is_text) in sym_items.items()
    }
    exe = Executable(
        entry=entry,
        text_base=0x0040_0000,
        text_words=words,
        data_base=0x1001_0000,
        data=data,
        symbols=symbols,
    )
    restored = Executable.from_bytes(exe.to_bytes())
    assert restored == exe
    assert restored.digest == exe.digest
