import random

import pytest

from halidon import (
    CiphertextDFT,
    CiphertextHGR,
    GroupRingElement,
    HalidonRing,
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
from halidon import analysis, protocol
from halidon.dft import _transform
from halidon.protocol import render_ciphertext

import kat_vectors as kat
from conftest import SMALL_RINGS


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
        blank = table.value_for(" ")
        assert ct.blocks == ((blank, 0, 0, 0, 0, 0),)

    def test_round_trip_with_generated_table(self, toy_keys):
        pub, priv = toy_keys
        table = gen_unit_table(pub.n, seed=2)
        text = "ATTACK AT 5:30 - BRING A MAP."
        ct = hgr_encrypt_message(pub, 10, table, text)
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
        spectra = _transform(
            HalidonRing.create(pub.n, pub.m, 10), tampered.blocks, True, False
        )
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

    def test_no_blocks_is_a_ciphertext(self):
        assert CiphertextHGR(49, 6, 19, ()).blocks == ()


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
