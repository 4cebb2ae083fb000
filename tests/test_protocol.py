import random
import re
import tracemalloc
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halidon import (
    ALPHABET,
    CiphertextDFT,
    CiphertextHGR,
    GroupRingElement,
    HalidonRing,
    RsaPublicKey,
    UnitAssignment,
    choose_omega,
    dft_decrypt_message,
    dft_encrypt_message,
    find_primitive_root,
    factorize,
    gen_unit_table,
    hgr_decrypt_message,
    hgr_encrypt_message,
    is_primitive_root_of_unity,
    keygen,
    lambda_of,
    read_ciphertext,
    recover_omega,
    rsa_encrypt,
    write_ciphertext,
)
from halidon.errors import (
    AlphabetTooLarge,
    CodeOutOfRange,
    HalidonError,
    IndexNotSupported,
    InvalidOmega,
    LengthMismatch,
    MalformedFile,
    ModulusMismatch,
    SearchExhausted,
    UnknownUnit,
)
from halidon import _files, analysis, cli, protocol
from halidon.codec import render_table
from halidon.dft import _transform
from halidon.protocol import render_ciphertext
from halidon.rsa import write_public_key

import kat_vectors as kat
from kat_vectors import N257
from conftest import SMALL_RINGS
from helpers import cut, flat, naive_dft, per_character_codes

INDEX_ONE = r"^block length m = 1; the exchange needs m >= 2$"


@pytest.fixture(scope="module")
def session_keys():
    return keygen(
        kat.SESSION_PRIMES, (1, 1), e=kat.SESSION_E, m=kat.SESSION_M
    )


@pytest.fixture(scope="module")
def session_table():
    return UnitAssignment(
        modulus=kat.SESSION_N, values=kat.UNIT_TABLE_VALUES
    )


@pytest.fixture(scope="module")
def toy_keys():
    # n = 91 = 7 * 13, psi = 6, e defaults to 5
    return keygen((7, 13), (1, 1))


class TestChooseOmega:
    def test_session_draw(self, session_keys):
        pub, _ = session_keys
        omega, c = choose_omega(pub, seed=11)
        assert omega.value == 330241  # 17th draw under this seed
        assert is_primitive_root_of_unity(pub.n, pub.m, omega.value)
        assert c == rsa_encrypt(pub, omega).value

    def test_deterministic_per_seed(self, session_keys):
        pub, _ = session_keys
        assert choose_omega(pub, seed=4) == choose_omega(pub, seed=4)

    def test_trivial_index_rejected(self):
        pub, _ = keygen((7,), (1,), m=1)
        with pytest.raises(IndexNotSupported):
            choose_omega(pub, seed=1)

    def test_search_budget(self, session_keys):
        pub, _ = session_keys
        with pytest.raises(SearchExhausted):
            choose_omega(pub, seed=0, attempts=5)

    def test_exhausted_search_explains_the_density(self, session_keys):
        pub, _ = session_keys
        with pytest.raises(SearchExhausted) as info:
            choose_omega(pub, seed=0, attempts=5)
        assert str(info.value) == (
            "no primitive 202th root found in 5 draws from Z_491063; a "
            "uniform draw is one with probability phi(m)^k/n = 100^k/491063,"
            " k being the number of distinct prime factors of n, so at RSA "
            "sizes the roots are too sparse to sample from the public key "
            "alone"
        )

    def test_hopeless_search_is_refused_before_a_draw(self, monkeypatch):
        # a root's primes are all 1 mod 202, so the 257-bit n has at most
        # 33 of them, and a draw is a root with probability at most
        # 100^33/(n-2), about 2^-37: 10^6 draws cannot be expected to hit
        pub = RsaPublicKey(n=N257, e=65537, m=202)
        drawn = []
        monkeypatch.setattr(
            random.Random, "randrange",
            lambda self, *args: drawn.append(args) or 2,
        )
        with pytest.raises(SearchExhausted) as info:
            choose_omega(pub, seed=1)
        assert drawn == []
        assert info.value.exit_code == 3
        assert str(info.value) == (
            f"no search for a primitive 202th root in Z_{N257}: every prime "
            "of n exceeds m, so n has at most k = 33 distinct primes, and a "
            "draw is a root with probability at most phi(m)^k/(n-2) = "
            f"100^33/{N257 - 2}; 1000000 draws would find one with "
            "probability under 2^-10"
        )

    def test_prime_modulus_is_refused_before_a_draw(self, monkeypatch):
        # (m+1)^k <= n allows k = 12 primes of this 41-bit n, but it is
        # prime: a draw is a root with probability at most
        # phi(8)/(n-2), about 2^-38, so 10^5 draws cannot be expected to hit
        n = 1099511627873
        pub = RsaPublicKey(n=n, e=5, m=8)
        drawn = []
        monkeypatch.setattr(
            random.Random, "randrange",
            lambda self, *args: drawn.append(args) or 2,
        )
        with pytest.raises(SearchExhausted) as info:
            choose_omega(pub, seed=7, attempts=10**5)
        assert drawn == []
        assert info.value.exit_code == 3
        assert str(info.value) == (
            f"no search for a primitive 8th root in Z_{n}: n is prime, so "
            "k = 1, and a draw is a root with probability at most "
            f"phi(m)^k/(n-2) = 4^1/{n - 2}; 100000 draws would find one "
            "with probability under 2^-10"
        )

    @pytest.mark.parametrize("n, m, roots", [
        (kat.SESSION_N, kat.SESSION_M, [147766, 443653, 424131]),
        (601 * 811, 10, [419075, 27815, 300669]),
        (91, 6, [82, 10, 75]),
        (49, 6, [19, 19, 19]),
        (31 * 61 * 151 * 181 * 211, 30, [8255617761, 7896152121, 8268074307]),
    ], ids=["m202", "m10", "Z91", "Z49", "five-prime"])
    def test_the_bound_leaves_every_session_key_searching(self, n, m, roots):
        # the benchmark's and the tests' keys still draw, and each seed
        # still gives the omega it gave before the bound
        pub = RsaPublicKey(n=n, e=5, m=m)
        assert [choose_omega(pub, seed=s)[0].value for s in range(3)] == roots

    def test_toy_ring_draws_known_roots(self, toy_keys):
        pub, _ = toy_keys
        seen = {choose_omega(pub, seed=s)[0].value for s in range(30)}
        assert seen <= {10, 17, 75, 82}  # the four roots of index 6 in Z_91
        assert len(seen) > 1

    def test_prime_square_toy_draws_both_roots(self):
        pub, _ = keygen((7,), (2,), e=5, m=6)
        seen = {choose_omega(pub, seed=s)[0].value for s in range(40)}
        assert seen == {19, 31}


class TestRecoverOmega:
    def test_session_value(self, session_keys):
        _, priv = session_keys
        assert recover_omega(priv, kat.SESSION_C).value == kat.SESSION_OMEGA

    def test_non_root_rejected(self, session_keys):
        pub, priv = session_keys
        c = rsa_encrypt(pub, 1).value
        with pytest.raises(InvalidOmega):
            recover_omega(priv, c)

    def test_composes_with_choose(self, session_keys):
        pub, priv = session_keys
        for seed in (1, 2, 3):
            omega, c = choose_omega(pub, seed=seed)
            assert recover_omega(priv, c) == omega


class TestCertifyOnce:
    @pytest.mark.parametrize("encrypt,decrypt,uses_table", [
        (dft_encrypt_message, dft_decrypt_message, False),
        (hgr_encrypt_message, hgr_decrypt_message, True),
    ], ids=["dft", "hgr"])
    def test_one_criterion_call_per_decrypt(
        self, session_keys, session_table, monkeypatch,
        encrypt, decrypt, uses_table,
    ):
        pub, priv = session_keys
        tables = [session_table] if uses_table else []
        ct = encrypt(pub, kat.SESSION_OMEGA, *tables, "ATTACK AT 5:30.")
        calls = []

        def counted(*args):
            calls.append(args)
            return is_primitive_root_of_unity(*args)

        # both names the protocol reaches the criterion by
        monkeypatch.setattr(analysis, "is_primitive_root_of_unity", counted)
        monkeypatch.setattr(protocol, "is_primitive_root_of_unity", counted)
        assert decrypt(priv, *tables, ct) == "ATTACK AT 5:30."
        assert calls == [(pub.n, pub.m, kat.SESSION_OMEGA)]


class TestDftSession:
    def test_index_one_is_refused(self):
        # at m = 1 the blocks would be the symbol codes themselves
        pub, priv = keygen((7, 13), (1, 1), m=1)
        with pytest.raises(IndexNotSupported, match=INDEX_ONE):
            dft_encrypt_message(pub, 1, "HI")
        with pytest.raises(IndexNotSupported, match=INDEX_ONE):
            dft_decrypt_message(priv, CiphertextDFT(91, 1, 1, ((17,), (18,))))

    def test_reference_ciphertext_edges(self, session_keys):
        pub, _ = session_keys
        ct = dft_encrypt_message(pub, kat.SESSION_OMEGA, kat.DFT_MESSAGE)
        assert ct.c == kat.SESSION_C
        assert len(ct.blocks) == 1
        assert ct.blocks[0][:30] == kat.DFT_CIPHER_PREFIX
        assert ct.blocks[0][-15:] == kat.DFT_CIPHER_SUFFIX

    def test_reference_decrypts(self, session_keys):
        pub, priv = session_keys
        ct = dft_encrypt_message(pub, kat.SESSION_OMEGA, kat.DFT_MESSAGE)
        assert dft_decrypt_message(priv, ct) == kat.DFT_MESSAGE

    def test_empty_message_spectrum(self, toy_keys):
        pub, _ = toy_keys
        ct = dft_encrypt_message(pub, 10, "")
        # one all-blank block; a constant vector transforms to
        # (36 * m, 0, ..., 0)
        assert ct.blocks == ((34, 0, 0, 0, 0, 0),)

    def test_empty_round_trip(self, toy_keys):
        pub, priv = toy_keys
        ct = dft_encrypt_message(pub, 10, "")
        assert dft_decrypt_message(priv, ct) == ""

    def test_keep_padding(self, toy_keys):
        pub, priv = toy_keys
        ct = dft_encrypt_message(pub, 10, "HI")
        assert dft_decrypt_message(priv, ct, keep_padding=True) == "HI    "

    def test_multi_block(self, toy_keys):
        pub, priv = toy_keys
        text = "THIS MESSAGE SPANS SEVERAL BLOCKS OF SIX"
        ct = dft_encrypt_message(pub, 10, text)
        assert len(ct.blocks) == 7
        assert dft_decrypt_message(priv, ct) == text

    def test_non_root_omega_rejected(self, toy_keys):
        pub, _ = toy_keys
        with pytest.raises(InvalidOmega):
            dft_encrypt_message(pub, 2, "HI")

    def test_modulus_below_the_alphabet_is_refused(self):
        # codes 0..39 reduced mod 31 would decrypt "XYZ-." to "2348755555"
        pub, _ = keygen((31,), (1,), e=7, m=10)
        with pytest.raises(AlphabetTooLarge) as info:
            dft_encrypt_message(pub, 15, "XYZ-.")
        assert str(info.value) == (
            "n = 31 < 40; RSA-DFT needs all 40 symbol codes 0..39 to be "
            "distinct residues mod n"
        )
        assert info.value.exit_code == 2

    def test_least_prime_over_the_alphabet_carries_every_symbol(self):
        pub, priv = keygen((41,), (1,), m=10)
        ct = dft_encrypt_message(pub, 4, ALPHABET)
        assert dft_decrypt_message(priv, ct, keep_padding=True) == ALPHABET

    def test_wrong_private_key_behaviour(self, toy_keys):
        # a wrong d recovers omega^(e*d'), a power of omega coprime to
        # m: when e*d' = 1 mod m the wrong key is stage-2 equivalent and
        # decrypts correctly; otherwise the output is an index-permuted
        # (wrong) message, decoded without error
        pub, _ = toy_keys
        ct = dft_encrypt_message(pub, 10, "HELLO")
        for e_wrong in (7, 11, 13, 17):
            _, wrong_priv = keygen((7, 13), (1, 1), e=e_wrong)
            t = pub.e * wrong_priv.d % pub.m
            decrypted = dft_decrypt_message(wrong_priv, ct)
            if t == 1:
                assert decrypted == "HELLO"
            else:
                assert decrypted != "HELLO"

    def test_foreign_root_in_transport_flagged(self, toy_keys):
        # 17 is a primitive 6th root of Z_91 outside the power orbit of
        # 10 (they differ in one CRT component), so blocks made with 10
        # decode to out-of-range values under it
        pub, priv = toy_keys
        ct = dft_encrypt_message(pub, 10, "HELLO")
        forged = CiphertextDFT(
            ct.n, ct.m, rsa_encrypt(pub, 17).value, ct.blocks
        )
        with pytest.raises(CodeOutOfRange, match=r"^block 0: .*\(wrong key"):
            dft_decrypt_message(priv, forged)
        # a first block made with 17 decodes, so the error names block 1
        # and counts the position within it
        honest = dft_encrypt_message(pub, 17, "HELLO")
        forged = CiphertextDFT(
            ct.n, ct.m, honest.c, honest.blocks + ct.blocks
        )
        with pytest.raises(CodeOutOfRange) as info:
            dft_decrypt_message(priv, forged)
        assert info.value.block == 1
        assert 0 <= info.value.position < ct.m
        assert str(info.value) == (
            f"block 1: code {info.value.code} at position "
            f"{info.value.position} is outside 0..39 (wrong key?)"
        )

    def test_modulus_mismatch(self, toy_keys, session_keys):
        pub, _ = toy_keys
        _, session_priv = session_keys
        ct = dft_encrypt_message(pub, 10, "HELLO")
        with pytest.raises(ModulusMismatch):
            dft_decrypt_message(session_priv, ct)


class TestHgrSession:
    def test_reference_coefficients_exact(self, session_keys, session_table):
        pub, _ = session_keys
        ct = hgr_encrypt_message(
            pub, kat.SESSION_OMEGA, session_table, kat.HGR_MESSAGE
        )
        assert len(ct.blocks) == 1
        assert ct.blocks[0] == kat.HGR_CIPHER

    def test_reference_spectrum_recovered(self, session_keys, session_table):
        pub, priv = session_keys
        ct = hgr_encrypt_message(
            pub, kat.SESSION_OMEGA, session_table, kat.HGR_MESSAGE
        )
        ring = HalidonRing.create(priv.n, priv.m, kat.SESSION_OMEGA)
        spectrum = lambda_of(GroupRingElement(ct.blocks[0], ring))
        assert spectrum.values == kat.HGR_LAMBDAS

    def test_reference_decrypts_up_to_table_defect(
        self, session_keys, session_table
    ):
        # K/M and L/N share table values, so those positions collapse to
        # K and L; everything else must match exactly
        pub, priv = session_keys
        ct = hgr_encrypt_message(
            pub, kat.SESSION_OMEGA, session_table, kat.HGR_MESSAGE
        )
        decrypted = hgr_decrypt_message(priv, session_table, ct)
        expected = kat.HGR_MESSAGE.replace("M", "K").replace("N", "L")
        assert decrypted == expected
        assert len(decrypted) == len(kat.HGR_MESSAGE)
        for got, sent in zip(decrypted, kat.HGR_MESSAGE):
            if sent in "KM":
                assert got == "K"
            elif sent in "LN":
                assert got == "L"
            else:
                assert got == sent

    def test_blank_block_coefficients(self, toy_keys):
        pub, _ = toy_keys
        table = gen_unit_table(pub.n, seed=2)
        ct = hgr_encrypt_message(pub, 10, table, "")
        blank = table.values[ALPHABET.index(" ")]
        assert ct.blocks == ((blank, 0, 0, 0, 0, 0),)

    def test_round_trip_with_generated_table(self, toy_keys):
        pub, priv = toy_keys
        table = gen_unit_table(pub.n, seed=2)
        text = "ATTACK AT 5:30 - BRING A MAP."
        ct = hgr_encrypt_message(pub, 10, table, text)
        assert hgr_decrypt_message(priv, table, ct) == text

    @pytest.mark.parametrize("text", ["Q", ""])
    def test_one_symbol_at_index_one_is_refused(self, text):
        # at m = 1 the only root is 1 and the transform is the identity:
        # the one block would be the symbol's own unit, so neither side
        # of the session runs
        pub, priv = keygen((41,), (1,), m=1)
        table = gen_unit_table(pub.n, seed=2)
        with pytest.raises(IndexNotSupported, match=INDEX_ONE):
            hgr_encrypt_message(pub, 1, table, text)
        unit = table.values[ALPHABET.index(text or " ")]
        with pytest.raises(IndexNotSupported, match=INDEX_ONE):
            hgr_decrypt_message(priv, table, CiphertextHGR(41, 1, 1, ((unit,),)))

    @pytest.mark.parametrize("text", ["Q", ""])
    def test_one_symbol_in_one_block_of_two(self, text):
        # the fewest codes a session looks up: one symbol padded to m = 2
        pub, priv = keygen((41,), (1,), m=2)
        table = gen_unit_table(pub.n, seed=2)
        ct = hgr_encrypt_message(pub, 40, table, text)
        assert len(ct.blocks) == 1
        assert hgr_decrypt_message(priv, table, ct) == text

    def test_tampering_detected(self, toy_keys):
        pub, priv = toy_keys
        table = gen_unit_table(pub.n, seed=2)
        ct = hgr_encrypt_message(pub, 10, table, "HELLO")
        blocks = [list(b) for b in ct.blocks]
        blocks[0][3] = (blocks[0][3] + 1) % pub.n
        tampered = CiphertextHGR(
            ct.n, ct.m, ct.c, tuple(tuple(b) for b in blocks)
        )
        with pytest.raises(UnknownUnit):
            hgr_decrypt_message(priv, table, tampered)

    def test_unknown_unit_names_its_block_and_position(self, toy_keys):
        pub, priv = toy_keys
        table = gen_unit_table(pub.n, seed=2)
        ct = hgr_encrypt_message(pub, 10, table, "ATTACK AT 5:30 - BRING A MAP.")
        blocks = [list(b) for b in ct.blocks]
        blocks[2][0] = (blocks[2][0] + 1) % pub.n
        tampered = CiphertextHGR(
            ct.n, ct.m, ct.c, tuple(tuple(b) for b in blocks)
        )
        ring = HalidonRing.create(pub.n, pub.m, 10)
        spectra = cut(_transform(ring, flat(tampered.blocks), True, False), pub.m)
        block, pos = next(
            (t, j)
            for t, spectrum in enumerate(spectra)
            for j, v in enumerate(spectrum)
            if v not in table.values
        )
        assert block == 2
        with pytest.raises(UnknownUnit) as info:
            hgr_decrypt_message(priv, table, tampered)
        assert str(info.value) == (
            f"value {spectra[block][pos]} at position {pos} is not in the "
            f"unit table (block {block}; wrong table or wrong root?)"
        )

    def test_wrong_table_flagged(self, toy_keys):
        pub, priv = toy_keys
        table = gen_unit_table(pub.n, seed=2)
        other = gen_unit_table(pub.n, seed=3)
        ct = hgr_encrypt_message(pub, 10, table, "HELLO")
        with pytest.raises(UnknownUnit):
            hgr_decrypt_message(priv, other, ct)

    def test_table_modulus_checked(self, toy_keys):
        pub, _ = toy_keys
        table = gen_unit_table(491063, seed=2)
        with pytest.raises(ModulusMismatch):
            hgr_encrypt_message(pub, 10, table, "HI")


class TestDecryptChecksTheCiphertext:
    def test_scheme_mismatch_is_refused(self, toy_keys):
        # unchecked, the RSA-HGR coefficients of "HELLO" decode under
        # RSA-DFT to 'A8CC5P'
        pub, priv = toy_keys
        table = gen_unit_table(pub.n, seed=2)
        hgr_ct = hgr_encrypt_message(pub, 10, table, "HELLO")
        dft_ct = dft_encrypt_message(pub, 10, "HELLO")
        with pytest.raises(HalidonError) as info:
            dft_decrypt_message(priv, hgr_ct)
        assert info.value.exit_code == 2
        assert str(info.value) == (
            "scheme mismatch: this is an RSA-HGR v1 ciphertext, "
            "not an RSA-DFT v1 ciphertext"
        )
        with pytest.raises(HalidonError) as info:
            hgr_decrypt_message(priv, table, dft_ct)
        assert info.value.exit_code == 2
        assert str(info.value) == (
            "scheme mismatch: this is an RSA-DFT v1 ciphertext, "
            "not an RSA-HGR v1 ciphertext"
        )

    @pytest.mark.parametrize("scheme", ["dft", "hgr"])
    def test_block_length_must_match_the_key(self, toy_keys, scheme):
        # 10 is a primitive 6th root mod 91, so unchecked, an m = 7
        # ciphertext failed as a wrong key (InvalidOmega, exit 3)
        pub, priv = toy_keys
        table = gen_unit_table(pub.n, seed=2)
        cls = CiphertextDFT if scheme == "dft" else CiphertextHGR
        ct = cls(pub.n, 7, rsa_encrypt(pub, 10).value, ((1,) * 7,))
        with pytest.raises(LengthMismatch) as info:
            if scheme == "dft":
                dft_decrypt_message(priv, ct)
            else:
                hgr_decrypt_message(priv, table, ct)
        assert info.value.exit_code == 2
        assert str(info.value) == (
            "ciphertext block length 7 against key block length 6"
        )


class TestCiphertextType:
    def test_block_of_wrong_length_is_named(self):
        # the transform kernel checks no block, so a hand-built
        # ciphertext is refused when it is built, before any decrypt
        for cls in (CiphertextDFT, CiphertextHGR):
            with pytest.raises(LengthMismatch, match="block 1 has length 5"):
                cls(49, 6, 19, ((1,) * 6, (1,) * 5))

    def test_first_of_several_bad_blocks_is_named(self):
        blocks = ((1,) * 6, (1,) * 6, (1,) * 7, (1,) * 5)
        with pytest.raises(LengthMismatch) as info:
            CiphertextDFT(49, 6, 19, blocks)
        assert str(info.value) == "block 2 has length 7 against block length 6"

    def test_no_blocks_is_refused(self):
        # such a ciphertext rendered the header alone, which the reader
        # refuses ("expected at least 5 lines")
        for cls in (CiphertextDFT, CiphertextHGR):
            with pytest.raises(LengthMismatch) as info:
                cls(91, 6, 82, ())
            assert str(info.value) == "no blocks: a ciphertext needs at least one"

    @pytest.mark.parametrize("m,blocks", [(0, ((), ())), (0, ()), (-3, ())])
    def test_block_length_below_one_is_refused(self, m, blocks):
        with pytest.raises(LengthMismatch) as info:
            CiphertextDFT(91, m, 82, blocks)
        assert str(info.value) == (
            f"block length m = {m}: a ciphertext needs m >= 1"
        )

    @pytest.mark.parametrize("c", [91, 92, -1])
    def test_c_outside_the_residues_is_refused(self, c):
        with pytest.raises(ValueError) as info:
            CiphertextHGR(91, 6, c, ((1,) * 6,))
        assert str(info.value) == f"c = {c} is not a residue mod 91"

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([CiphertextDFT, CiphertextHGR]), st.data())
    def test_what_the_constructor_accepts_reads_back(
        self, tmp_path_factory, cls, data
    ):
        def mostly(valid, *faults, odds=7):  # one draw in odds + 1 a fault
            return st.integers(0, odds).flatmap(
                lambda i: valid if i < odds else st.sampled_from(faults)
            )

        n = data.draw(mostly(st.integers(1, 2**70), -1, 0))
        residues = st.integers(0, max(n - 1, 0))
        m = data.draw(mostly(st.integers(1, 5), -1, 0, odds=3))
        c = data.draw(mostly(residues, -1, n, n + 1))
        width = mostly(st.just(m), m + 1, m - 1).filter(lambda k: k >= 0)
        entry = mostly(residues, -1, n, odds=40)
        block = width.flatmap(lambda k: st.tuples(*[entry] * k))
        blocks = data.draw(mostly(st.lists(block, min_size=1, max_size=4), []))
        try:
            ct = cls(n, m, c, tuple(blocks))
        except (HalidonError, ValueError):
            return
        path = tmp_path_factory.mktemp("ct") / "x.ct"
        write_ciphertext(ct, path)
        assert read_ciphertext(path) == ct

    @pytest.mark.parametrize("entry", [49, -1, 2**64, 2**70])
    def test_entry_outside_the_residues_is_named(self, entry):
        # the kernel's columns sum m products of an entry and a residue
        # in one 64-bit word, so an entry past n could carry silently
        blocks = [[1] * 6 for _ in range(8)]
        blocks[5][2] = entry
        for cls in (CiphertextDFT, CiphertextHGR):
            with pytest.raises(ValueError) as info:
                cls(49, 6, 19, tuple(map(tuple, blocks)))
            assert str(info.value) == (
                f"block 5: entry {entry} at position 2 is outside Z_49"
            )

    def test_the_encryptor_builds_ciphertexts_the_constructor_accepts(
        self, toy_keys
    ):
        pub, _ = toy_keys
        table = gen_unit_table(pub.n, seed=2)
        text = "ALL FORTY SYMBOLS: 0123456789 ABCDEFGHIJKLMNOPQRSTUVWXYZ-."
        for ct in (
            dft_encrypt_message(pub, 10, text),
            hgr_encrypt_message(pub, 10, table, text),
        ):
            assert type(ct)(ct.n, ct.m, ct.c, ct.blocks) == ct


class TestFlatEntries:
    """The sessions carry a ciphertext's entries as one flat list and cut
    its `blocks` only where they are read."""

    TEXT = "ATTACK AT 5:30 - BRING A MAP. " * 3

    @pytest.mark.parametrize("scheme", ["dft", "hgr"])
    def test_encryptor_reader_and_constructor_agree(
        self, toy_keys, tmp_path, scheme
    ):
        pub, _ = toy_keys
        n, m = pub.n, pub.m
        table = gen_unit_table(n, seed=2)
        codes = list(per_character_codes(self.TEXT)[0])
        codes += [ALPHABET.index(" ")] * (-len(codes) % m)
        if scheme == "dft":
            encrypted = dft_encrypt_message(pub, 10, self.TEXT)
            values, scale = codes, 1
        else:
            encrypted = hgr_encrypt_message(pub, 10, table, self.TEXT)
            values, scale = [table.values[c] for c in codes], pow(m, -1, n)
        path = tmp_path / "session.ct"
        write_ciphertext(encrypted, path)
        loaded = read_ciphertext(path)
        blocks = tuple(
            naive_dft(values[i : i + m], n, 10, scale)
            for i in range(0, len(values), m)
        )
        built = type(encrypted)(n, m, encrypted.c, blocks)
        for ct in (encrypted, loaded):
            assert ct == built and hash(ct) == hash(built)
            assert repr(ct) == repr(built)
            assert ct.blocks == blocks and ct.blocks is ct.blocks
            assert all(type(b) is tuple for b in ct.blocks)
            assert type(ct)(ct.n, ct.m, ct.c, ct.blocks) == ct

    def test_a_session_never_cuts_the_blocks(self, monkeypatch, tmp_path):
        # the bulk-m10 shape: 10,000 characters in 1,000 blocks of 10
        pub, priv = keygen((601, 811), (1, 1), m=10)
        table = gen_unit_table(pub.n, seed=3)
        rng = random.Random(10)
        text = "".join(rng.choice(ALPHABET) for _ in range(10_000)) + "."
        cut_blocks = []
        getattr_ = protocol._Ciphertext.__getattr__

        def spy(ct, name):
            cut_blocks.append(name)
            return getattr_(ct, name)

        monkeypatch.setattr(protocol._Ciphertext, "__getattr__", spy)
        path = tmp_path / "session.ct"
        write_ciphertext(dft_encrypt_message(pub, 27815, text), path)
        assert dft_decrypt_message(priv, read_ciphertext(path)) == text
        write_ciphertext(hgr_encrypt_message(pub, 27815, table, text), path)
        ct = read_ciphertext(path)
        assert hgr_decrypt_message(priv, table, ct) == text
        assert cut_blocks == []
        assert len(ct.blocks) == 1001 and cut_blocks == ["blocks"]


class TestFullSessionProperty:
    def test_random_sessions_both_systems(self):
        # random keys, roots, tables, and messages at small scale
        rng = random.Random(99)
        alphabet = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ :.-"
        ring_pool = [r for r in SMALL_RINGS if r[0] > 100]
        for trial in range(50):
            n, m, _ = ring_pool[trial % len(ring_pool)]
            f = factorize(n)
            primes = f.primes
            exps = tuple(e for _, e in f.pairs)
            pub, priv = keygen(primes, exps, m=m)
            omega = find_primitive_root(f, m, rng).value
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(0, 3 * m))
            ).rstrip(" ")
            dft_ct = dft_encrypt_message(pub, omega, text)
            assert dft_decrypt_message(priv, dft_ct) == text
            table = gen_unit_table(pub.n, seed=trial)
            hgr_ct = hgr_encrypt_message(pub, omega, table, text)
            assert hgr_decrypt_message(priv, table, hgr_ct) == text


class TestCiphertextFiles:
    def test_dft_write_read_identity(self, session_keys, tmp_path):
        pub, _ = session_keys
        ct = dft_encrypt_message(pub, kat.SESSION_OMEGA, kat.DFT_MESSAGE)
        path = tmp_path / "session.ct"
        write_ciphertext(ct, path)
        assert read_ciphertext(path) == ct

    def test_hgr_write_read_identity(self, toy_keys, tmp_path):
        pub, _ = toy_keys
        table = gen_unit_table(pub.n, seed=2)
        ct = hgr_encrypt_message(pub, 10, table, "HELLO")
        path = tmp_path / "toy.ct"
        write_ciphertext(ct, path)
        loaded = read_ciphertext(path)
        assert isinstance(loaded, CiphertextHGR)
        assert loaded == ct

    def test_the_writer_refuses_what_the_reader_refuses(
        self, session_keys, tmp_path, monkeypatch
    ):
        # a file of exactly the cap reads back; one byte over is refused
        # by both sides, and the writer opens no file
        pub, _ = session_keys
        ct = dft_encrypt_message(pub, kat.SESSION_OMEGA, kat.DFT_MESSAGE)
        size = len(render_ciphertext(ct))
        monkeypatch.setattr(_files, "MAX_FILE_BYTES", size)
        path = tmp_path / "at-cap.ct"
        write_ciphertext(ct, path)
        assert path.stat().st_size == size
        assert read_ciphertext(path) == ct
        monkeypatch.setattr(_files, "MAX_FILE_BYTES", size - 1)
        with pytest.raises(MalformedFile, match="over the size cap"):
            read_ciphertext(path)
        with pytest.raises(HalidonError) as info:
            write_ciphertext(ct, tmp_path / "over.ct")
        assert info.value.exit_code == 2
        assert str(info.value) == (
            f"ciphertext of {size} bytes is over the size cap of {size - 1} "
            "bytes that its reader accepts"
        )
        assert not (tmp_path / "over.ct").exists()

    @pytest.mark.parametrize("scheme", ["dft", "hgr"])
    def test_a_message_past_the_cap_is_refused_before_the_transform(
        self, session_keys, session_table, tmp_path, monkeypatch, capsys,
        scheme,
    ):
        # 2,000 characters pad to 10 blocks of m = 202, and each of their
        # lines takes at least `block=`, 202 digits and 202 spaces or LFs
        pub, _ = session_keys
        write_public_key(pub, tmp_path / "public.key")
        (tmp_path / "table.txt").write_text(render_table(session_table))
        (tmp_path / "message.txt").write_text("A" * 2000)
        out = tmp_path / "message.ct"
        argv = [
            f"{scheme}-encrypt", "--pub", str(tmp_path / "public.key"),
            "--omega", str(kat.SESSION_OMEGA),
            "--in", str(tmp_path / "message.txt"), "-o", str(out),
        ]
        if scheme == "hgr":
            argv += ["--table", str(tmp_path / "table.txt")]
        head = f"RSA-{scheme.upper()} v1\nn=491063\nm=202\nc=142638\n"
        least = len(head) + 10 * (2 * 202 + 6)
        transform = mock.Mock(wraps=_transform)
        monkeypatch.setattr(protocol, "_transform", transform)
        monkeypatch.setattr(_files, "MAX_FILE_BYTES", least - 1)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: ciphertext of 10 blocks of 202 entries is at least "
            f"{least} bytes, over the size cap of {least - 1} bytes that its "
            "reader accepts\n"
        )
        transform.assert_not_called()
        assert not out.exists()
        # at the bound itself the blocks are transformed, and the exact
        # check after the render refuses the file of wider entries
        monkeypatch.setattr(_files, "MAX_FILE_BYTES", least)
        assert cli.main(argv) == 2
        assert re.fullmatch(
            f"error: ciphertext of [0-9]+ bytes is over the size cap of "
            f"{least} bytes that its reader accepts\n",
            capsys.readouterr().err,
        )
        transform.assert_called_once()
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["dft", "hgr"])
    def test_one_block_past_the_cap_is_refused_before_the_padding(
        self, monkeypatch, scheme
    ):
        # 2 characters under m = 10^7 would pad to 10^7 codes, 80 MB of
        # tuple, for a file of at least 20 MB: the refusal comes first
        pub, _ = keygen([30000001], [1], m=10**7)
        pad = mock.Mock(wraps=protocol.pad_codes)
        monkeypatch.setattr(protocol, "pad_codes", pad)
        encrypt = {
            "dft": partial(dft_encrypt_message, pub, 343),
            "hgr": partial(
                hgr_encrypt_message, pub, 343, gen_unit_table(pub.n, seed=1)
            ),
        }[scheme]
        least = len(f"RSA-{scheme.upper()} v1\nn=30000001\nm=10000000\n")
        least += len(f"c={pow(343, pub.e, pub.n)}\n") + 2 * 10**7 + 6
        tracemalloc.start()
        try:
            with pytest.raises(HalidonError) as info:
                encrypt("HI")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            f"ciphertext of 1 blocks of 10000000 entries is at least {least}"
            f" bytes, over the size cap of {_files.MAX_FILE_BYTES} bytes that"
            " its reader accepts"
        )
        pad.assert_not_called()
        assert peak < 1 << 20

    def test_rendered_layout(self, toy_keys):
        pub, _ = toy_keys
        ct = dft_encrypt_message(pub, 10, "")
        assert render_ciphertext(ct) == (
            "RSA-DFT v1\nn=91\nm=6\nc=82\nblock=34 0 0 0 0 0\n"
        )

    def test_empty_block_file_rejected(self, tmp_path):
        path = tmp_path / "x.ct"
        path.write_text("RSA-DFT v1\nn=91\nm=6\nc=82\n")
        with pytest.raises(MalformedFile):
            read_ciphertext(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "x.ct"
        path.write_text("RSA-DFT v2\nn=91\nm=6\nc=82\nblock=34 0 0 0 0 0\n")
        with pytest.raises(MalformedFile) as info:
            read_ciphertext(path)
        assert info.value.line == 1

    def test_block_length_checked(self, tmp_path):
        path = tmp_path / "x.ct"
        path.write_text("RSA-DFT v1\nn=91\nm=6\nc=82\nblock=34 0 0\n")
        with pytest.raises(MalformedFile) as info:
            read_ciphertext(path)
        assert info.value.line == 5

    def test_block_entry_range_checked(self, tmp_path):
        path = tmp_path / "x.ct"
        path.write_text("RSA-DFT v1\nn=91\nm=6\nc=82\nblock=91 0 0 0 0 0\n")
        with pytest.raises(MalformedFile):
            read_ciphertext(path)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("491063", "block entry outside Z_491063"),
            ("-1", "block entries are [0-9]+ separated by single spaces"),
            ("1.5", "non-integer block entry"),
            ("x", "non-integer block entry"),
        ],
    )
    def test_bad_entry_deep_in_a_long_file_names_its_line(
        self, tmp_path, entry, message
    ):
        rng = random.Random(700)
        blocks = tuple(
            tuple(rng.randrange(491063) for _ in range(10)) for _ in range(1000)
        )
        lines = render_ciphertext(
            CiphertextDFT(n=491063, m=10, c=5, blocks=blocks)
        ).splitlines()
        parts = lines[699].split(" ")
        parts[4] = entry
        lines[699] = " ".join(parts)
        path = tmp_path / "long.ct"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFile) as info:
            read_ciphertext(path)
        assert info.value.line == 700
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "first, later, message",
        [
            ("block=1 2 91 0 0 0", "block=1 2 3", "block entry outside Z_91"),
            ("block=1 2 3", "block=1 2 91 0 0 0", "block has 3 entries"),
            # on one line, the length fault wins
            ("block=1 2 91", "block=1 2 3 4 5 6", "block has 3 entries"),
        ],
        ids=["range-then-length", "length-then-range", "both-on-one-line"],
    )
    def test_first_bad_line_is_named(self, tmp_path, first, later, message):
        # a file that fails the one-pass check is walked row by row, so
        # the earlier of two faults of different kinds is the one named
        rows = ["block=1 2 3 4 5 6"] * 6
        rows[1], rows[3] = first, later
        path = tmp_path / "x.ct"
        head = "RSA-DFT v1\nn=91\nm=6\nc=82\n"
        path.write_text(head + "\n".join(rows) + "\n")
        with pytest.raises(MalformedFile) as info:
            read_ciphertext(path)
        assert info.value.line == 6
        assert message in str(info.value)

    # "²" passes str.isdigit() but not int(); "٣" passes both, as 3, so
    # on a lenient reader "n=9٣" loads as n = 93.
    @pytest.mark.parametrize("digit", ["²", "٣"], ids=["sup2", "arabic3"])
    @pytest.mark.parametrize(
        "line, field", [(2, "n=9{}"), (4, "c=8{}")], ids=["n", "c"]
    )
    def test_header_fields_are_ascii_decimals(
        self, tmp_path, digit, line, field
    ):
        lines = ["RSA-DFT v1", "n=91", "m=6", "c=82", "block=34 0 0 0 0 0"]
        lines[line - 1] = field.format(digit)
        path = tmp_path / "x.ct"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(MalformedFile) as info:
            read_ciphertext(path)
        assert info.value.line == line

    def test_transport_value_range_checked(self, tmp_path):
        path = tmp_path / "x.ct"
        path.write_text("RSA-DFT v1\nn=91\nm=6\nc=91\nblock=1 0 0 0 0 0\n")
        with pytest.raises(MalformedFile) as info:
            read_ciphertext(path)
        assert info.value.line == 4


class TestSpectrumSynthesisDuality:
    def test_hgr_coefficients_are_scaled_forward_transform(self, small_ring):
        # synthesizing coefficients from a spectrum is m^(-1) times the
        # forward transform of the spectrum values
        from halidon import coeffs_of_lambda, dft_forward

        rng = random.Random(41)
        n, m = small_ring.n, small_ring.m
        lam = [rng.randrange(n) for _ in range(m)]
        coeffs = coeffs_of_lambda(lam, small_ring).coeffs
        forward = dft_forward(small_ring, lam).entries
        minv = small_ring.m_inverse
        assert coeffs == tuple(minv * v % n for v in forward)
