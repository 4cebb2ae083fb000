import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halidon import (
    ALPHABET,
    HalidonRing,
    UnitAssignment,
    apply_table,
    codes_to_text,
    gen_unit_table,
    pad_and_block,
    read_table,
    text_to_codes,
    unapply_table,
    write_table,
)
from halidon import codec
from halidon.codec import render_table
from halidon.errors import (
    AlphabetTooLarge,
    CodeOutOfRange,
    MalformedFile,
    NotAUnit,
    UnknownUnit,
    UnsupportedSymbol,
)

import kat_vectors as kat
from helpers import SYMBOLS, per_character_codes


@pytest.fixture(scope="module")
def session_table():
    return UnitAssignment(
        modulus=kat.SESSION_N, values=kat.UNIT_TABLE_VALUES
    )


class TestTextToCodes:
    def test_message_head(self):
        assert text_to_codes("MY B") == (22, 34, 36, 11)

    def test_empty(self):
        assert text_to_codes("") == ()

    def test_digit_run(self):
        assert text_to_codes("4125678") == (4, 1, 2, 5, 6, 7, 8)

    def test_specials(self):
        assert text_to_codes(" :.-") == (36, 37, 38, 39)

    def test_lowercase_folds(self):
        assert text_to_codes("abz") == text_to_codes("ABZ")

    def test_unsupported_symbol_reported(self):
        with pytest.raises(UnsupportedSymbol) as info:
            text_to_codes("AB#C")
        assert info.value.char == "#"
        assert info.value.position == 2

    @settings(max_examples=300)
    @given(
        st.text()
        | st.text(
            alphabet=st.sampled_from(SYMBOLS + SYMBOLS.lower() + "ıſßﬆé#\t\n")
        )
    )
    @example("dotless ı and long ſ fold")
    @example("MASSE ßTRASSE")
    @example("LAST ﬆ")
    @example("ascii then é")
    def test_matches_the_per_character_rule(self, text):
        codes, rejected = per_character_codes(text)
        if rejected is None:
            assert text_to_codes(text) == codes
        else:
            with pytest.raises(UnsupportedSymbol) as info:
                text_to_codes(text)
            assert (info.value.char, info.value.position) == rejected

    def test_non_ascii_folds_and_rejections(self):
        assert text_to_codes("ıſ") == text_to_codes("IS")
        for text, char, pos in (("AßB", "ß", 1), ("ﬆ", "ﬆ", 0), ("ı#", "#", 1)):
            with pytest.raises(UnsupportedSymbol) as info:
                text_to_codes(text)
            assert (info.value.char, info.value.position) == (char, pos)


class TestCodesToText:
    def test_inverse_of_encode(self):
        for text in ("MY B", "", "4125678", "A Z:.-09"):
            assert codes_to_text(text_to_codes(text)) == text

    def test_period_and_hyphen(self):
        assert codes_to_text([38]) == "."
        assert codes_to_text([39]) == "-"

    def test_out_of_range(self):
        with pytest.raises(CodeOutOfRange):
            codes_to_text([0, 40])
        with pytest.raises(CodeOutOfRange):
            codes_to_text([-1])

    @given(st.text(alphabet=ALPHABET, max_size=80))
    def test_round_trip_property(self, text):
        assert codes_to_text(text_to_codes(text)) == text

    @given(
        st.lists(
            st.integers(0, 39)
            | st.integers(-300, 300)
            | st.integers(-(2**70), 2**70),
            max_size=30,
        )
    )
    def test_first_bad_code_is_named(self, codes):
        bad = [pos for pos, code in enumerate(codes) if not 0 <= code < 40]
        if not bad:
            assert codes_to_text(codes) == "".join(SYMBOLS[c] for c in codes)
            return
        with pytest.raises(CodeOutOfRange) as info:
            codes_to_text(codes)
        assert (info.value.code, info.value.position) == (codes[bad[0]], bad[0])


class TestPadAndBlock:
    def test_session_length_dft(self):
        blocks = pad_and_block(text_to_codes(kat.DFT_MESSAGE), 202)
        assert len(blocks) == 1
        assert len(blocks[0]) == 202
        assert blocks[0][101:] == (36,) * 101

    def test_session_length_hgr(self):
        blocks = pad_and_block(text_to_codes(kat.HGR_MESSAGE), 202)
        assert blocks[0][97:] == (36,) * 105

    def test_exact_fit_unpadded(self):
        blocks = pad_and_block(range(5), 5)
        assert blocks == [(0, 1, 2, 3, 4)]

    def test_empty_message_gets_blank_block(self):
        assert pad_and_block((), 4) == [(36, 36, 36, 36)]

    def test_splits_into_blocks(self):
        blocks = pad_and_block(range(7), 3)
        assert blocks == [(0, 1, 2), (3, 4, 5), (6, 36, 36)]


class TestGenUnitTable:
    def test_deterministic_per_seed(self, z49):
        ring = HalidonRing.create(491063, 202, 239823)
        first = gen_unit_table(ring, seed=42)
        second = gen_unit_table(ring, seed=42)
        assert first == second
        assert first != gen_unit_table(ring, seed=43)

    def test_injective_all_units(self):
        table = gen_unit_table(491063, seed=7)
        assert table.is_injective
        assert all(math.gcd(v, 491063) == 1 for v in table.values)

    def test_alphabet_too_large(self):
        ring = HalidonRing.create(37, 2, 36)  # phi(37) = 36 < 40
        with pytest.raises(AlphabetTooLarge):
            gen_unit_table(ring, seed=1)
        with pytest.raises(AlphabetTooLarge):
            gen_unit_table(25, seed=1)  # phi(25) = 20


    def test_phi_bound_behind_the_factoring_cutoff(self):
        # phi(n) >= sqrt(n/2), checked on a totient sieve: so phi(n) >= 40
        # from n = 3200 on, and only smaller moduli need factors
        limit = 100_000
        phi = list(range(limit))
        for p in range(2, limit):
            if phi[p] == p:
                for k in range(p, limit, p):
                    phi[k] -= phi[k] // p
        assert all(2 * phi[n] ** 2 >= n for n in range(1, limit))
        assert max(n for n in range(1, limit) if phi[n] < 40) < 3200

    def test_large_modulus_is_not_factorized(self, monkeypatch):
        expected = {n: gen_unit_table(n, seed=1) for n in (3199, 3200, 491063)}
        ring = HalidonRing(3199, 2, 3198, codec.factorize(3199))

        def refuse(n, budget=None):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(codec, "factorize", refuse)
        for n in (3200, 491063):
            assert gen_unit_table(n, seed=1) == expected[n]
        assert gen_unit_table(ring, seed=1) == expected[3199]
        with pytest.raises(AssertionError, match="factorize"):
            gen_unit_table(3199, seed=1)


class TestUnitAssignment:
    def test_session_table_loads_and_validates(self, session_table):
        assert session_table.value_for("A") == 162483
        assert session_table.value_for("B") == 2255
        assert all(
            math.gcd(v, kat.SESSION_N) == 1 for v in session_table.values
        )

    def test_session_table_defect_flagged(self, session_table):
        # K/M and L/N collide, so the published table is not injective
        assert not session_table.is_injective
        assert session_table.value_for("K") == session_table.value_for("M")
        assert session_table.value_for("L") == session_table.value_for("N")

    def test_non_unit_value_rejected(self):
        values = list(kat.UNIT_TABLE_VALUES)
        values[0] = 607  # shares a factor with n
        with pytest.raises(NotAUnit):
            UnitAssignment(modulus=kat.SESSION_N, values=tuple(values))


class TestApplyTable:
    def test_session_head(self, session_table):
        lam = apply_table("AN ", session_table)
        assert lam.values == (162483, 52853, 348362)

    def test_empty(self, session_table):
        assert apply_table("", session_table).values == ()

    def test_full_session_message(self, session_table):
        padded = pad_and_block(text_to_codes(kat.HGR_MESSAGE), 202)[0]
        lam = apply_table(padded, session_table)
        assert lam.values == kat.HGR_LAMBDAS

    def test_round_trip_with_generated_table(self):
        table = gen_unit_table(491063, seed=3)
        text = "THE QUICK BROWN FOX: 0123456789-."
        assert unapply_table(apply_table(text, table), table) == text

    @given(st.text(alphabet=ALPHABET, max_size=60))
    def test_round_trip_property(self, text):
        table = gen_unit_table(491063, seed=5)
        assert unapply_table(apply_table(text, table), table) == text


class TestUnapplyTable:
    def test_ambiguous_values_take_first_symbol(self, session_table):
        assert unapply_table([80303], session_table) == "K"
        assert unapply_table([52853], session_table) == "L"

    def test_unknown_unit_reported(self, session_table):
        with pytest.raises(UnknownUnit) as info:
            unapply_table([162483, 12345], session_table)
        assert info.value.value == 12345
        assert info.value.position == 1

    @given(st.data())
    def test_first_unknown_unit_is_named(self, session_table, data):
        known = st.sampled_from(session_table.values)
        values = data.draw(
            st.lists(known | st.integers(0, session_table.modulus - 1))
        )
        bad = [
            pos for pos, v in enumerate(values)
            if v not in session_table.values
        ]
        if not bad:
            assert unapply_table(values, session_table) == "".join(
                session_table.symbol_for(v) for v in values
            )
            return
        with pytest.raises(UnknownUnit) as info:
            unapply_table(values, session_table)
        assert (info.value.value, info.value.position) == (
            values[bad[0]], bad[0]
        )


class TestTableFiles:
    def test_exact_bytes(self, session_table, tmp_path):
        path = tmp_path / "table.txt"
        write_table(session_table, path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "HGR-TABLE v1"
        assert lines[1] == "n=491063"
        assert lines[2] == "0=221373"
        assert lines[12] == "A=162483"
        assert lines[38] == "SPACE=348362"
        assert lines[39] == "COLON=90605"
        assert lines[40] == "PERIOD=5932"
        assert lines[41] == "HYPHEN=275062"
        assert len(lines) == 42
        assert text.endswith("\n")

    def test_round_trip(self, session_table, tmp_path):
        path = tmp_path / "table.txt"
        write_table(session_table, path)
        assert read_table(path) == session_table

    def test_each_value_is_checked_once(
        self, session_table, tmp_path, monkeypatch
    ):
        # the reader checks every value by line, and builds the table
        # without the constructor checking all forty again
        path = tmp_path / "table.txt"
        write_table(session_table, path)
        calls = []
        gcd = math.gcd
        monkeypatch.setattr(
            math, "gcd", lambda a, b: calls.append(a) or gcd(a, b)
        )
        assert read_table(path) == session_table
        assert calls == list(session_table.values)

    def test_generated_round_trip(self, tmp_path):
        table = gen_unit_table(491063, seed=9)
        path = tmp_path / "table.txt"
        write_table(table, path)
        assert read_table(path) == table

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("NOPE\nn=5\n")
        with pytest.raises(MalformedFile) as info:
            read_table(path)
        assert info.value.line == 1

    def test_wrong_key_order(self, session_table, tmp_path):
        path = tmp_path / "t.txt"
        text = render_table(session_table).splitlines()
        text[2], text[3] = text[3], text[2]  # swap keys 0 and 1
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(MalformedFile) as info:
            read_table(path)
        assert info.value.line == 3

    def test_non_unit_value(self, session_table, tmp_path):
        path = tmp_path / "t.txt"
        lines = render_table(session_table).splitlines()
        lines[2] = "0=607"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFile) as info:
            read_table(path)
        assert info.value.line == 3

    # "²" passes str.isdigit() but not int(); "٣" passes both, as 3, so
    # on a lenient reader "n=49106٣" and "0=22137٣" load as the original.
    @pytest.mark.parametrize("digit", ["²", "٣"], ids=["sup2", "arabic3"])
    @pytest.mark.parametrize("index", [1, 2], ids=["n", "entry"])
    def test_fields_are_ascii_decimals(
        self, session_table, tmp_path, digit, index
    ):
        path = tmp_path / "t.txt"
        lines = render_table(session_table).splitlines()
        assert lines[index].endswith("3")
        lines[index] = lines[index][:-1] + digit
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(MalformedFile) as info:
            read_table(path)
        assert info.value.line == index + 1

    def test_truncated_file(self, session_table, tmp_path):
        path = tmp_path / "t.txt"
        lines = render_table(session_table).splitlines()[:20]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFile):
            read_table(path)
