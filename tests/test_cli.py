import hashlib
import io
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halidon import analysis, cli, is_primitive_root_of_unity
from halidon._files import MAX_FILE_BYTES
from halidon.cli import main
from halidon.protocol import read_ciphertext, render_ciphertext
from halidon.errors import MalformedFile

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*argv):
    """A fresh interpreter that imports this checkout's halidon."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env
    )


def run_cli(*argv):
    """`python -m halidon` in a subprocess that imports this checkout."""
    return run_python("-m", "halidon", *argv)


class TestGoldenOutputs:
    def test_analyze_small_ring(self):
        result = run_cli("analyze", "49")
        assert result.returncode == 0
        assert result.stdout == (
            "n = 49 = 7^2\n"
            "phi(n) = 42\n"
            "psi(n) = 6\n"
            "Z(49) is a halidon ring with index m = 6 and w = 19\n"
            "primitive 6th roots of unity (2): 19 31\n"
        )

    def test_analyze_even_modulus(self):
        result = run_cli("analyze", "10")
        assert result.returncode == 0
        assert result.stdout == (
            "n = 10 = 2 * 5\n"
            "phi(n) = 4\n"
            "psi(n) = 1\n"
            "Z(10) is a trivial halidon ring (index m = 1, w = 1)\n"
        )

    def test_dft_six_point(self):
        result = run_cli(
            "dft", "--n", "49", "--m", "6", "--omega", "19",
            "--vec", "2 1 2 3 5 10",
        )
        assert result.returncode == 0
        assert result.stdout == "23 24 32 44 9 27\n"


    # sha256 of the full stdout, pinned before the half walk and the
    # one-format decimal rows
    @pytest.mark.parametrize("n,digest", [
        (491063, "e4d0b9ec4d16088aa3368d0557b8c27f60765dfd5f82aff18977458d77b83b11"),
        (1000003, "e3086c4d07e7e9b40d373c12bf64db72b7cf733f4606c3c9e0b1f8792d975852"),
        (31 * 61 * 151 * 181 * 211,
         "34302e490a5a6c68a56bfa79f40d83caaa250d594f7c5089729f0ae834c3b846"),
        (1000000007 * 998244353,
         "48e747aa2951cd1125ebad3a8d6b9377ccc65e0126ca285ed41647f951388059"),
    ])
    def test_analyze_output_digest(self, capsys, n, digest):
        assert main(["analyze", str(n)]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest


class TestParser:
    def test_two_calls_share_one_parser(self, capsys, monkeypatch):
        parsers = []
        parse_args = cli.argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_args", spy)
        assert main(["analyze", "49"]) == 0
        assert main(["find-omega", "91", "6"]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    @pytest.mark.parametrize("argv", [
        ["--help"], ["dft-encrypt", "--help"], ["frobnicate"], ["analyze"],
        ["find-omega", "49", "6", "--all", "--random"],
    ])
    def test_repeated_and_fresh_parsers_say_the_same(self, capsys, argv):
        def outcome(parse):
            with pytest.raises(SystemExit) as info:
                parse(argv)
            captured = capsys.readouterr()
            return info.value.code, captured.out, captured.err

        fresh = outcome(cli.build_parser.__wrapped__().parse_args)
        assert outcome(main) == outcome(main) == fresh


class TestDeterminism:
    def test_find_omega_random_reproducible(self, capsys):
        assert main(["find-omega", "49", "6", "--random", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["find-omega", "49", "6", "--random", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_missing_seed_is_echoed(self, capsys):
        assert main(["find-omega", "49", "6", "--random"]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("seed=")

    def test_deterministic_mode_requires_seed(self, capsys):
        code = main(["--deterministic", "find-omega", "49", "6", "--random"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err


class TestSubcommands:
    def test_idft_inverts(self, capsys):
        assert main([
            "idft", "--n", "49", "--m", "6", "--omega", "19",
            "--vec", "23 24 32 44 9 27",
        ]) == 0
        assert capsys.readouterr().out == "2 1 2 3 5 10\n"

    def test_find_omega_variants(self, capsys):
        assert main(["find-omega", "49", "6"]) == 0
        assert capsys.readouterr().out == "19\n"
        assert main(["find-omega", "49", "6", "--all"]) == 0
        assert capsys.readouterr().out == "19 31\n"
        assert main(["find-omega", "491063", "202", "--count", "3"]) == 0
        out = capsys.readouterr().out
        assert len(out.split()) == 3

    def test_conv(self, capsys):
        assert main([
            "conv", "--n", "49", "--m", "6",
            "--vec-a", "1 1 0 0 0 0", "--vec-b", "1 1 0 0 0 0",
        ]) == 0
        assert capsys.readouterr().out == "1 2 1 0 0 0\n"

    def test_gr_cycle(self, capsys):
        assert main([
            "gr", "decode", "--n", "7", "--m", "3", "--omega", "2",
            "--vec", "2 0 0",
        ]) == 0
        assert capsys.readouterr().out == "2 2 2\n"
        assert main([
            "gr", "encode", "--n", "7", "--m", "3", "--omega", "2",
            "--vec", "2 2 2",
        ]) == 0
        assert capsys.readouterr().out == "2 0 0\n"
        assert main([
            "gr", "invert", "--n", "7", "--m", "3", "--omega", "2",
            "--vec", "2 0 0",
        ]) == 0
        assert capsys.readouterr().out == "4 0 0\n"
        assert main([
            "gr", "check", "--n", "7", "--m", "3", "--omega", "2",
            "--vec", "2 0 0",
        ]) == 0
        assert capsys.readouterr().out == "unit\n"

    def test_gr_check_reports_non_unit(self, capsys):
        assert main([
            "gr", "check", "--n", "49", "--m", "6", "--omega", "19",
            "--vec", "7 0 0 0 0 0",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("not a unit: lambda[1] = 7")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "spectrum.txt"
        assert main([
            "dft", "--n", "49", "--m", "6", "--omega", "19",
            "--vec", "2 1 2 3 5 10", "-o", str(target),
        ]) == 0
        assert target.read_text() == "23 24 32 44 9 27\n"
        assert capsys.readouterr().out == ""


class TestExitCodes:
    def test_usage_error_is_2(self):
        result = run_cli("dft", "--n", "49")
        assert result.returncode == 2

    def test_unknown_subcommand_is_2(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2

    def test_bad_vector_is_2(self, capsys):
        code = main([
            "dft", "--n", "49", "--m", "6", "--omega", "19", "--vec", "a b",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_omega_is_3(self, capsys):
        code = main([
            "dft", "--n", "49", "--m", "6", "--omega", "20",
            "--vec", "2 1 2 3 5 10",
        ])
        assert code == 3

    def test_non_unit_inversion_is_3(self, capsys):
        code = main([
            "gr", "invert", "--n", "49", "--m", "6", "--omega", "19",
            "--vec", "7 0 0 0 0 0",
        ])
        assert code == 3

    def test_index_not_supported_is_2(self, capsys):
        code = main(["find-omega", "49", "4"])
        assert code == 2

    @pytest.mark.parametrize("mode", [[], ["--all"], ["--count", "3"], ["--random", "--seed", "1"]])
    @pytest.mark.parametrize("n,m,psi", [("341", "20", "10"), ("49", "0", "6")])
    def test_index_not_supported_in_every_mode(self, capsys, mode, n, m, psi):
        code = main(["find-omega", n, m, *mode])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: index {m} does not divide psi({n}) = {psi}\n"

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_2(self, capsys, count):
        code = main(["find-omega", "341", "10", "--count", count])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --count must be at least 1, got {count}\n"

    def test_factoring_timeout_names_the_budget(self, capsys, monkeypatch):
        n = 1000000007 * 998244353
        monkeypatch.setenv("HALIDON_FACTOR_BUDGET", "1")
        assert main(["analyze", str(n)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            f"error: factoring {n} stopped after [0-9]+ Pollard-rho "
            "iterations against a budget of 1 "
            r"\(HALIDON_FACTOR_BUDGET sets it\)\n",
            captured.err,
        )

    @pytest.mark.parametrize("raw", ["abc", "-5", "٣", " 5", "1e3"])
    def test_bad_factor_budget_names_the_variable(
        self, capsys, monkeypatch, raw
    ):
        # 91 needs no rho step, but the setting is read and refused
        monkeypatch.setenv("HALIDON_FACTOR_BUDGET", raw)
        assert main(["analyze", "91"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: HALIDON_FACTOR_BUDGET must be a decimal integer [0-9]+,"
            f" got {raw!r}\n"
        )

    @pytest.mark.parametrize("raw", [None, ""])
    def test_unset_or_empty_factor_budget_keeps_the_default(
        self, capsys, monkeypatch, raw
    ):
        if raw is None:
            monkeypatch.delenv("HALIDON_FACTOR_BUDGET", raising=False)
        else:
            monkeypatch.setenv("HALIDON_FACTOR_BUDGET", raw)
        n = 1000000007 * 998244353
        assert main(["analyze", str(n)]) == 0
        assert capsys.readouterr().out.startswith(
            f"n = {n} = 998244353 * 1000000007\n"
        )

    def test_zero_factor_budget_is_trial_division_only(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("HALIDON_FACTOR_BUDGET", "0")
        assert main(["analyze", "91"]) == 0
        assert capsys.readouterr().out.startswith("n = 91 = 7 * 13\n")
        # 999983 * 999979: both primes lie below the trial limit
        assert main(["analyze", str(999983 * 999979)]) == 0
        assert capsys.readouterr().out.startswith(
            f"n = {999983 * 999979} = 999979 * 999983\n"
        )
        n = 1000000007 * 998244353
        assert main(["analyze", str(n)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            f"error: factoring {n} stopped after [0-9]+ Pollard-rho "
            "iterations against a budget of 0 "
            r"\(HALIDON_FACTOR_BUDGET sets it\)\n",
            captured.err,
        )

    def test_too_many_roots_is_3(self, capsys):
        start = time.perf_counter()
        code = main(["analyze", "1000000007"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: primitive 1000000006th roots mod 1000000007: the search "
            "would build a list of 500000002 roots, over the cap of 1000000\n"
        )
        # building the list would take tens of minutes
        assert elapsed < 20


    @pytest.mark.parametrize("n", ["1", "0", "-5"])
    def test_conv_modulus_below_two_is_2(self, capsys, n):
        # 0 ended in a ZeroDivisionError and -5 in an OverflowError
        code = main([
            "conv", f"--n={n}", "--m", "2", "--vec-a", "1 2", "--vec-b", "3 4",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: modulus must be >= 2, got {n}\n"

    @pytest.mark.parametrize("command", [
        ["dft"], ["idft"], ["gr", "encode"], ["gr", "decode"],
        ["gr", "invert"], ["gr", "check"],
    ])
    def test_ring_modulus_zero_is_2(self, capsys, command):
        # the root was reduced mod 0 before the criterion saw n
        code = main([
            *command, "--n", "0", "--m", "6", "--omega", "19",
            "--vec", "1 2 3 4 5 6",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: bad arguments n=0, m=6, w=19\n"

    @pytest.mark.parametrize("command", [
        ["dft"], ["idft"], ["gr", "encode"], ["gr", "decode"],
        ["gr", "invert"], ["gr", "check"],
    ])
    def test_wrong_length_reads_the_same_everywhere(self, capsys, command):
        code = main([
            *command, "--n", "49", "--m", "6", "--omega", "19", "--vec", "1 2",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: vector of length 2 in a ring of index 6\n"
        )


RING_COMMANDS = [
    ["dft"], ["idft"], ["conv"],
    ["gr", "encode"], ["gr", "decode"], ["gr", "invert"], ["gr", "check"],
]


@st.composite
def ring_command(draw):
    """argv of dft, idft, conv or a gr action over small, often invalid,
    rings; a vector has length m about half the time."""
    command = draw(st.sampled_from(RING_COMMANDS))
    n = draw(st.integers(-3, 300))
    m = draw(st.integers(-1, 12))

    def vector():
        size = draw(st.just(max(m, 0)) | st.integers(0, 13))
        entries = draw(st.lists(st.integers(), min_size=size, max_size=size))
        return " ".join(map(str, entries))

    argv = [*command, f"--n={n}", f"--m={m}"]
    if command == ["conv"]:
        return argv + [f"--vec-a={vector()}", f"--vec-b={vector()}"]
    omega = draw(st.integers(0, 300) | st.integers())
    return argv + [f"--omega={omega}", f"--vec={vector()}"]


@settings(max_examples=300, deadline=None)
@given(argv=ring_command())
@example(argv=["conv", "--n=0", "--m=2", "--vec-a=1 2", "--vec-b=3 4"])
@example(argv=["conv", "--n=-5", "--m=2", "--vec-a=1 2", "--vec-b=3 4"])
@example(argv=["gr", "check", "--n=0", "--m=6", "--omega=19", "--vec=1"])
def test_ring_commands_exit_0_2_or_3(argv):
    # every input ends in a result or a one-line error, never a traceback
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


class TestRootsOfALargePrime:
    """find-omega factors m only, never p - 1, which here needs rho."""

    PRIME = 246792560789627667186234149420958415919  # 128 bits, 1 mod 202

    @pytest.mark.parametrize("mode", [
        [], ["--count", "3"], ["--random", "--seed", "5"],
    ])
    def test_every_form_under_a_zero_budget(self, capsys, monkeypatch, mode):
        monkeypatch.setenv("HALIDON_FACTOR_BUDGET", "0")
        assert main(["find-omega", str(self.PRIME), "202", *mode]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        roots = [int(w) for w in captured.out.split()]
        assert len(roots) == (3 if "--count" in mode else 1)
        for w in roots:
            assert is_primitive_root_of_unity(self.PRIME, 202, w)


class TestRootOrdering:
    """Which ordering each listing takes: the byte mask for a dense root
    list, the sort for a sparse one, neither past the cap."""

    @staticmethod
    def spied(monkeypatch):
        """The orderings and masks that analysis goes on to build."""
        seen = []
        ordered, deque = analysis._ordered, analysis.deque
        root_sets = analysis._component_root_sets

        def spy(record, real):
            def call(*args, **kwargs):
                seen.append(record)
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(analysis, "_ordered", spy("list", ordered))
        monkeypatch.setattr(analysis, "deque", spy("mask", deque))
        monkeypatch.setattr(
            analysis, "_component_root_sets", spy("components", root_sets)
        )
        return seen

    @pytest.mark.parametrize("n,calls,code", [
        (1000003, ["list", "mask"], 0),  # 333,332 roots: n/count = 3
        (491063, ["list"], 0),  # 10,000 roots: n/count = 49
        (601 * 811, ["list"], 0),
        (31 * 61 * 151 * 181 * 211, ["list"], 0),
        (1000000007, [], 3),  # TooManyRoots before any list or mask
    ])
    def test_each_modulus_takes_its_method(
        self, capsys, monkeypatch, tmp_path, n, calls, code
    ):
        seen = self.spied(monkeypatch)
        assert main(["analyze", str(n), "-o", str(tmp_path / "a.txt")]) == code
        assert seen == (["components", *calls] if calls else [])
        assert capsys.readouterr().out == ""

    def test_a_row_takes_the_mask_where_the_ints_take_the_sort(
        self, capsys, monkeypatch
    ):
        # 1008 roots of Z_10091 at m = 1009: n/count = 10 lies between
        # DENSE and DENSE_ROW
        n, m = 10091, 1009
        assert analysis.DENSE * 1008 < n <= analysis.DENSE_ROW * 1008
        seen = self.spied(monkeypatch)
        assert main(["find-omega", str(n), str(m), "--all"]) == 0
        assert seen == ["components", "list", "mask"]
        seen.clear()
        roots = analysis.enumerate_primitive_roots(n, m).roots_found
        assert seen == ["components", "list"]
        assert capsys.readouterr().out == " ".join(map(str, roots)) + "\n"


class TestColdStart:
    """A command imports only what it needs to start."""

    HEAVY = {"dataclasses", "inspect", "json", "secrets"}

    @staticmethod
    def imported(*argv):
        """The interpreter's result and every module it imported."""
        result = run_python("-X", "importtime", *argv)
        names = {
            line.rpartition("|")[2].strip()
            for line in result.stderr.splitlines()
            if line.startswith("import time:")
        }
        return result, names

    @pytest.mark.parametrize("command", ["analyze", "hgr-table"])
    def test_commands_skip_heavy_imports(self, tmp_path, command):
        pub = tmp_path / "public.key"
        pub.write_text("HALIDON-RSA PUBLIC v1\nn=491063\ne=361123\nm=202\n")
        argv = {
            "analyze": ["analyze", "49"],
            "hgr-table": ["hgr-table", "--pub", str(pub), "--seed", "3"],
        }[command]
        _, bare = self.imported("-c", "pass")
        result, loaded = self.imported("-m", "halidon", *argv)
        assert result.returncode == 0
        assert "halidon.cli" in loaded
        assert (loaded - bare) & self.HEAVY == set()

    def test_unseeded_draw_still_echoes_its_seed(self):
        result = run_cli("find-omega", "49", "6", "--random")
        assert result.returncode == 0
        assert result.stdout in ("19\n", "31\n")
        assert re.fullmatch(r"seed=[0-9]+\n", result.stderr)


class TestKeyWorkflow:
    def test_full_session_via_files(self, tmp_path, capsys):
        keydir = tmp_path / "keys"
        assert main([
            "keygen", "--primes", "607,809", "--exps", "1,1",
            "--pub-exp", "361123", "--m", "202", "-o", str(keydir),
        ]) == 0
        out = capsys.readouterr().out
        assert "n=491063" in out
        assert "phi=489648" in out
        assert "d=18523" in out

        assert main([
            "choose-omega", "--pub", str(keydir / "public.key"),
            "--seed", "11",
        ]) == 0
        lines = dict(
            pair.split("=")
            for pair in capsys.readouterr().out.strip().splitlines()
        )
        omega, c = int(lines["omega"]), int(lines["c"])

        assert main([
            "recover-omega", "--priv", str(keydir / "private.key"),
            "--c", str(c),
        ]) == 0
        assert capsys.readouterr().out == f"omega={omega}\n"

        msg = tmp_path / "message.txt"
        msg.write_text("MEET AT DAWN.\n")
        ct_path = tmp_path / "message.ct"
        assert main([
            "dft-encrypt", "--pub", str(keydir / "public.key"),
            "--omega", str(omega), "--in", str(msg), "-o", str(ct_path),
        ]) == 0
        assert ct_path.read_text().startswith("RSA-DFT v1\n")

        assert main([
            "dft-decrypt", "--priv", str(keydir / "private.key"),
            "--in", str(ct_path),
        ]) == 0
        assert capsys.readouterr().out == "MEET AT DAWN.\n"

        table_path = tmp_path / "table.txt"
        assert main([
            "hgr-table", "--pub", str(keydir / "public.key"),
            "--seed", "3", "-o", str(table_path),
        ]) == 0
        hct_path = tmp_path / "message.hct"
        assert main([
            "hgr-encrypt", "--pub", str(keydir / "public.key"),
            "--omega", str(omega), "--table", str(table_path),
            "--in", str(msg), "-o", str(hct_path),
        ]) == 0
        assert hct_path.read_text().startswith("RSA-HGR v1\n")
        assert main([
            "hgr-decrypt", "--priv", str(keydir / "private.key"),
            "--table", str(table_path), "--in", str(hct_path),
        ]) == 0
        assert capsys.readouterr().out == "MEET AT DAWN.\n"

    def test_decrypt_type_mismatch_rejected(self, tmp_path, capsys):
        keydir = tmp_path / "keys"
        main([
            "keygen", "--primes", "7,13", "--exps", "1,1", "-o", str(keydir),
        ])
        capsys.readouterr()
        msg = tmp_path / "m.txt"
        msg.write_text("HI")
        ct_path = tmp_path / "m.ct"
        assert main([
            "dft-encrypt", "--pub", str(keydir / "public.key"),
            "--omega", "10", "--in", str(msg), "-o", str(ct_path),
        ]) == 0
        table_path = tmp_path / "t.txt"
        assert main([
            "hgr-table", "--pub", str(keydir / "public.key"),
            "--seed", "1", "-o", str(table_path),
        ]) == 0
        code = main([
            "hgr-decrypt", "--priv", str(keydir / "private.key"),
            "--table", str(table_path), "--in", str(ct_path),
        ])
        assert code == 2
        assert "not an RSA-HGR" in capsys.readouterr().err

    def test_block_length_mismatch_is_2(self, tmp_path, capsys):
        keydir = tmp_path / "keys"
        main([
            "keygen", "--primes", "7,13", "--exps", "1,1", "-o", str(keydir),
        ])
        capsys.readouterr()
        ct_path = tmp_path / "m7.ct"
        ct_path.write_text("RSA-DFT v1\nn=91\nm=7\nc=82\nblock=1 1 1 1 1 1 1\n")
        code = main([
            "dft-decrypt", "--priv", str(keydir / "private.key"),
            "--in", str(ct_path),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ciphertext block length 7 against key block length 6\n"
        )

    def test_dft_encrypt_below_the_alphabet_is_2(self, tmp_path, capsys):
        pub = tmp_path / "public.key"
        pub.write_text("HALIDON-RSA PUBLIC v1\nn=31\ne=7\nm=10\n")
        msg = tmp_path / "m.txt"
        msg.write_text("XYZ-.")
        code = main([
            "dft-encrypt", "--pub", str(pub), "--omega", "15", "--in", str(msg),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: n = 31 < 40; RSA-DFT needs all 40 symbol codes 0..39 "
            "to be distinct residues mod n\n"
        )

    def test_full_session_runs_no_rho_step(
        self, tmp_path, capsys, monkeypatch
    ):
        # under budget 0 the first Pollard-rho step would exit 3
        monkeypatch.setenv("HALIDON_FACTOR_BUDGET", "0")
        self.test_full_session_via_files(tmp_path, capsys)

    def test_hgr_table_never_factors_a_large_modulus(
        self, tmp_path, capsys, monkeypatch
    ):
        # phi(n) >= 40 holds for every n >= 3200, so the table needs no
        # factors; one rho step would exceed this budget.
        keydir = tmp_path / "keys"
        p, q = 18446744073709551629, 18446744073710551663
        assert (p * q).bit_length() >= 128
        assert main([
            "keygen", "--primes", f"{p},{q}", "--exps", "1,1",
            "-o", str(keydir),
        ]) == 0
        capsys.readouterr()
        monkeypatch.setenv("HALIDON_FACTOR_BUDGET", "1")
        assert main([
            "hgr-table", "--pub", str(keydir / "public.key"), "--seed", "3",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[:2] == ["HGR-TABLE v1", f"n={p * q}"]
        assert len(lines) == 42

    def test_non_ascii_key_field_names_file_and_line(self, tmp_path, capsys):
        pub = tmp_path / "public.key"
        pub.write_text(
            "HALIDON-RSA PUBLIC v1\nn=491063\ne=361123\nm=²\n", encoding="utf-8"
        )
        code = main(["choose-omega", "--pub", str(pub), "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {pub}:4: not a decimal integer: '²'\n"
        )

    @pytest.mark.parametrize(
        "key, line, reason",
        [
            ("n=0\ne=5\nm=6", 2, "n = 0 must be >= 2"),
            ("n=1\ne=5\nm=6", 2, "n = 1 must be >= 2"),
            ("n=491063\ne=0\nm=202", 3, "e = 0 must be >= 1"),
            ("n=491063\ne=361123\nm=0", 4, "m = 0 must be >= 1"),
        ],
        ids=["n0", "n1", "e0", "m0"],
    )
    @pytest.mark.parametrize("command", ["choose-omega", "dft-encrypt"])
    def test_a_public_key_keygen_refuses_is_2_and_writes_nothing(
        self, tmp_path, capsys, key, line, reason, command
    ):
        pub = tmp_path / "public.key"
        pub.write_text(f"HALIDON-RSA PUBLIC v1\n{key}\n")
        msg = tmp_path / "m.txt"
        msg.write_text("HI")
        out = tmp_path / "out.txt"
        args = {
            "choose-omega": ["--seed", "1"],
            "dft-encrypt": ["--omega", "2", "--in", str(msg)],
        }[command]
        code = main([command, "--pub", str(pub), *args, "-o", str(out)])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {pub}:{line}: {reason}\n")
        assert not out.exists()

    def test_a_private_key_of_index_zero_is_2_and_writes_nothing(
        self, tmp_path, capsys
    ):
        priv = tmp_path / "private.key"
        priv.write_text(
            "HALIDON-RSA PRIVATE v1\nn=491063\nd=18523\nphi=489648\nm=0\n"
            "factors=607^1,809^1\n"
        )
        out = tmp_path / "omega.txt"
        code = main([
            "recover-omega", "--priv", str(priv), "--c", "142638",
            "-o", str(out),
        ])
        assert code == 2
        assert capsys.readouterr() == (
            "", f"error: {priv}:5: m = 0 must be >= 1\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        "dft-encrypt", "hgr-encrypt", "dft-decrypt", "hgr-decrypt",
    ])
    def test_a_session_at_index_one_is_2_and_writes_nothing(
        self, tmp_path, capsys, command
    ):
        # keygen and hgr-table take m = 1; a session would send the
        # symbol codes as its blocks
        keys, table = tmp_path / "keys", tmp_path / "table.txt"
        assert main([
            "keygen", "--primes", "7,13", "--exps", "1,1", "--m", "1",
            "-o", str(keys),
        ]) == 0
        assert main([
            "hgr-table", "--pub", str(keys / "public.key"), "--seed", "1",
            "-o", str(table),
        ]) == 0
        capsys.readouterr()
        scheme, op = command.split("-")
        source = tmp_path / "in.txt"
        if op == "encrypt":
            source.write_text("HI")
            args = ["--pub", str(keys / "public.key"), "--omega", "1"]
        else:
            header = "RSA-DFT v1" if scheme == "dft" else "RSA-HGR v1"
            source.write_text(f"{header}\nn=91\nm=1\nc=1\nblock=17\nblock=18\n")
            args = ["--priv", str(keys / "private.key")]
        if scheme == "hgr":
            args += ["--table", str(table)]
        out = tmp_path / "out.txt"
        code = main([command, *args, "--in", str(source), "-o", str(out)])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: block length m = 1; the exchange needs m >= 2\n"
        )
        assert not out.exists()


class TestMessageFile:
    """The message reader: the files' size cap, strict UTF-8."""

    @pytest.fixture
    def public_key(self, tmp_path):
        pub = tmp_path / "public.key"
        pub.write_text("HALIDON-RSA PUBLIC v1\nn=491063\ne=361123\nm=202\n")
        return pub

    def encrypt(self, public_key, message):
        return main([
            "dft-encrypt", "--pub", str(public_key), "--omega", "239823",
            "--in", str(message),
        ])

    def test_a_byte_outside_utf8_names_file_and_line(
        self, tmp_path, capsys, public_key
    ):
        message = tmp_path / "message.txt"
        message.write_bytes(b"HI\xff")
        assert self.encrypt(public_key, message) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {message}:1: not UTF-8 at byte 0xff (invalid start byte)\n"
        )
        message.write_bytes(b"HI\nTHERE\n\xe2\x82")
        with pytest.raises(MalformedFile) as info:
            cli._read_message(message)
        assert (info.value.path, info.value.line) == (message, 3)

    def test_a_file_over_the_cap_is_refused_by_size(
        self, tmp_path, capsys, public_key
    ):
        message = tmp_path / "message.txt"
        message.write_text("HI\n")
        os.truncate(message, MAX_FILE_BYTES + 1)  # sparse: the tail reads as NULs
        assert self.encrypt(public_key, message) == 2
        assert capsys.readouterr().err == (
            f"error: {message}:2: file is over the size cap of "
            f"{MAX_FILE_BYTES} bytes\n"
        )

    @pytest.mark.parametrize("to_file", [True, False], ids=["-o", "stdout"])
    def test_a_ciphertext_over_the_cap_is_not_written(
        self, tmp_path, capsys, monkeypatch, public_key, to_file
    ):
        # the cap lowered to one byte under this ciphertext, which the
        # reader would refuse: exit 2, no file and no stdout; at the cap
        # the file is written and reads back
        message = tmp_path / "message.txt"
        message.write_text("HELLO")
        assert self.encrypt(public_key, message) == 0
        text = capsys.readouterr().out
        size = len(text)
        monkeypatch.setattr("halidon._files.MAX_FILE_BYTES", size - 1)
        out = tmp_path / "session.ct"
        output = ["-o", str(out)] if to_file else []
        assert main([
            "dft-encrypt", "--pub", str(public_key), "--omega", "239823",
            "--in", str(message), *output,
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: ciphertext of {size} bytes is over the size cap of "
            f"{size - 1} bytes that its reader accepts\n"
        )
        assert not out.exists()
        monkeypatch.setattr("halidon._files.MAX_FILE_BYTES", size)
        assert main([
            "dft-encrypt", "--pub", str(public_key), "--omega", "239823",
            "--in", str(message), "-o", str(out),
        ]) == 0
        assert out.read_text() == text
        assert render_ciphertext(read_ciphertext(out)) == text

    def test_line_ends_read_as_in_text_mode(self, tmp_path):
        message = tmp_path / "message.txt"
        message.write_bytes(b"A\r\nB\rC\n\n")
        assert cli._read_message(message) == "A\nB\nC"
