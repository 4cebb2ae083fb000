"""The workloads: set-up, timed rounds, output checks and the traced replay.

Every round of every workload runs the same parts, so that every
end-to-end metric is measured on every workload: in-process RSA-DFT and
RSA-HGR sessions, a seven-command session through ``python -m halidon``,
``analyze`` on the workload's moduli and ``find-omega``.  The workloads
differ in key, message size and moduli, which moves the cost between
layers.  All of them are closed loops in one process without threads;
CLI subprocesses run one at a time.
"""

from __future__ import annotations

import importlib
import math
import os
import random
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import oracle
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SCHEMES = ("dft", "hgr")
CLI_CHARS = 1000
SETUPS = 20  # before the first round; every round starts with one more
SAMPLE_BLOCKS = 4
CRT_SAMPLE = 200
CLI_TIMEOUT_S = 120
CAL_STEPS = 10_000  # one pass of the calibration loop, about 2 ms
CAL_REF_S = 0.002  # one pass's time at the reference host speed
CAL_MIN_S = 0.005  # the least calibration before and after an operation
CAL_SHARE = 0.1  # and after it, at least this share of the operation's time


@dataclass(frozen=True)
class Key:
    primes: tuple[int, ...]
    e: int
    m: int
    omega: int  # the secret root of the in-process sessions

    @property
    def n(self) -> int:
        return math.prod(self.primes)


REF_KEY = Key((607, 809), 361123, 202, 239823)
M10_KEY = Key((601, 811), 361123, 10, 27815)
FIVE_PRIME = 31 * 61 * 151 * 181 * 211
BIG_PRIME = 1000003
SEMIPRIME = 1000000007 * 998244353


@dataclass(frozen=True)
class Workload:
    key: Key
    chars: int  # message length of the sessions
    sessions: int  # in-process sessions of each scheme per round
    cli_sessions: int  # seven-command CLI sessions per round
    analyses: int  # analyze passes per round
    finds: int  # find-omega runs per round
    analyze: tuple[int, ...]
    find_omega: tuple[int, int]


# The parts of a round are interleaved (session, analysis, find-omega,
# CLI session, session, ...) so that every metric is sampled across the whole run:
# the shared host this was tuned on changes speed by up to 2x for
# seconds at a time.
WORKLOADS = {
    "bulk-m202": Workload(REF_KEY, 2_000, 25, 2, 15, 15, (REF_KEY.n,), (REF_KEY.n, 202)),
    "bulk-m10": Workload(M10_KEY, 10_000, 10, 2, 20, 20, (M10_KEY.n,), (M10_KEY.n, 10)),
    "root-analysis": Workload(
        REF_KEY, 1000, 2, 1, 1, 3, (REF_KEY.n, BIG_PRIME, FIVE_PRIME, SEMIPRIME), (FIVE_PRIME, 30)
    ),
}


def tiny(w: Workload) -> Workload:
    """A seconds-long version of w for smoke tests: short messages, no 333,332-root prime."""
    return replace(
        w, chars=64, sessions=min(w.sessions, 1), cli_sessions=1, analyses=1, finds=1,
        analyze=tuple(n for n in w.analyze if n != BIG_PRIME),
    )


def calibrate(seconds: float) -> tuple[int, float]:
    """Passes of a fixed pure-Python integer loop that uses nothing of
    halidon, for at least `seconds`: (passes, their seconds), the host's
    speed at this moment."""
    passes, start = 0, time.perf_counter_ns()
    while True:
        x, seen = 12345, {}
        for i in range(CAL_STEPS):
            x = (x * 48271 + i) % 1000003
            k = x & 1023
            seen[k] = seen.get(k, 0) + 1
        passes += 1
        secs = (time.perf_counter_ns() - start) / 1e9
        if secs >= seconds:
            return passes, secs


def message(rng: random.Random, length: int) -> str:
    """Uniform symbols of the 40-symbol alphabet; the last is never blank,
    since decryption strips trailing pad blanks."""
    body = "".join(rng.choice(oracle.ALPHABET) for _ in range(length - 1))
    return body + rng.choice(oracle.ALPHABET.replace(" ", ""))


class OpFailed(Exception):
    """An operation of the program raised or exited non-zero; the rest of its part is skipped."""


class Run:
    """One run of one workload: set-ups, then rounds until the time is up."""

    def __init__(self, workload: Workload, seed: int, traced: bool, workdir: Path):
        self.w = workload
        self.rng = random.Random(seed)
        self.table_seed = self.rng.randrange(2**32)
        self.omega_seed = self.rng.randrange(2**32)
        self.text = message(self.rng, workload.chars)
        self.cli_text = message(self.rng, min(CLI_CHARS, workload.chars))
        self.tracer = Tracer() if traced else None
        self.dir = workdir
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.scales: dict[str, list[float]] = defaultdict(list)
        self.scale = 1.0  # host-speed scale of the operation timed last
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.analyses: dict[int, tuple[bytes, dict]] = {}
        self.smallest: dict[tuple[int, int], int] = {}
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    # -- plumbing -------------------------------------------------------

    def span(self, name: str, layer: str, **counters):
        if self.tracer is None:
            return nullcontext(counters)
        return self.tracer.span(name, layer, **counters)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def timed(self, fn, *args):
        """Wall seconds of fn(*args) and its result.

        An untraced run also sets self.scale, the host's speed over the
        reference speed, from calibrations right before and right after:
        a time at the reference speed is the wall time times the scale.
        Traced runs skip them: their spans would count them, and their
        end-to-end samples are not reported.
        """
        if self.tracer is not None:
            start = time.perf_counter_ns()
            out = fn(*args)
            return (time.perf_counter_ns() - start) / 1e9, out
        passes, cal_secs = calibrate(CAL_MIN_S)
        start = time.perf_counter_ns()
        out = fn(*args)
        secs = (time.perf_counter_ns() - start) / 1e9
        more, more_secs = calibrate(max(CAL_MIN_S, CAL_SHARE * secs))
        self.scale = CAL_REF_S * (passes + more) / (cal_secs + more_secs)
        return secs, out

    def sample(self, key: str, value: float) -> None:
        """One sample of an end-to-end metric from the operation timed last, as measured."""
        self.samples[key].append(value)
        self.scales[key].append(self.scale)

    def op(self, fn, *args):
        """Run and time one operation of the program: (seconds, result)."""
        self.attempted += 1
        try:
            return self.timed(fn, *args)
        except Exception as exc:  # the program failed: count it, end the part
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            raise OpFailed from exc

    def _subprocess(self, argv, cwd):
        proc = subprocess.run(
            [sys.executable, *argv], cwd=cwd, env=self.env,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout

    def cli(self, *args, cwd=None) -> str:
        """One ``python -m halidon`` command of the CLI session, spanned and sampled: its stdout."""
        with self.span(f"cli.{args[0]}", "cli"):
            secs, out = self.op(self._subprocess, ["-m", "halidon", *args], cwd or self.dir)
        self.sample(f"cli_session_s:{args[0]}", secs)
        return out

    def in_process(self, *args):
        """One command through cli.main in this process, spanned as cli.<command>."""
        def call():
            if self.H.cli.main(list(args)) != 0:
                raise RuntimeError(f"halidon {args[0]} returned non-zero")
        with self.span(f"cli.{args[0]}", "cli"):
            return self.op(call)[0]

    def ring(self, n, m, omega, factorization=None):
        """Certify (n, m, omega) and build both power tables."""
        with self.span("analysis.ring_create", "analysis"):
            ring = self.H.HalidonRing.create(n, m, omega, factorization)
            ring.omega_powers, ring.omega_inverse_powers, ring.m_inverse
        return ring

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Import, keygen, ring certification, unit table and key files."""
        for name in [k for k in sys.modules if k == "halidon" or k.startswith("halidon.")]:
            del sys.modules[name]
        d = self.dir / "setup"
        d.mkdir(exist_ok=True)
        self.attempted += 1
        secs, (c, back) = self.timed(self._setup, d)
        self.sample("setup_s", secs)

        H, key = self.H, self.w.key
        self.check(Path(H.__file__).resolve().is_relative_to(SRC), "halidon imported from outside src")
        self.check((self.pub.n, self.pub.e, self.pub.m) == (key.n, key.e, key.m), "public key")
        self.check(self.priv.d == oracle.private_exponent(key.primes, key.e), "private exponent")
        self.check(c == pow(key.omega, key.e, key.n) and back == key.omega, "RSA round trip of omega")
        self.check(oracle.is_root(key.primes, key.m, key.omega), "session root")
        self.check_table(list(self.table.values), key.n)

    def _setup(self, d: Path):
        """The timed part of a set-up; returns the RSA round trip of omega."""
        key = self.w.key
        H = self.H = importlib.import_module("halidon")
        importlib.import_module("halidon.cli")
        with self.span("rsa.keygen", "rsa"):
            pub, priv = H.keygen(key.primes, (1,) * len(key.primes), e=key.e, m=key.m)
        ring = self.ring(pub.n, pub.m, key.omega, priv.factorization)
        with self.span("codec.gen_unit_table", "codec"):
            table = H.gen_unit_table(ring, self.table_seed)
        H.write_public_key(pub, d / "public.key")
        H.write_private_key(priv, d / "private.key")
        H.write_table(table, d / "table.txt")
        with self.span("rsa.read_key", "rsa"):
            self.pub = H.read_public_key(d / "public.key")
        with self.span("rsa.read_key", "rsa"):
            self.priv = H.read_private_key(d / "private.key")
        with self.span("codec.read_table", "codec"):
            self.table = H.read_table(d / "table.txt")
        with self.span("rsa.encrypt", "rsa"):
            c = H.rsa_encrypt(self.pub, key.omega).value
        with self.span("rsa.decrypt", "rsa"):
            back = H.rsa_decrypt(self.priv, c).value
        return c, back

    def check_table(self, values, n) -> None:
        self.check(
            len(values) == 40 and len(set(values)) == 40 and all(math.gcd(v, n) == 1 for v in values),
            "unit table is not 40 distinct units",
        )

    # -- sessions ---------------------------------------------------------

    def encrypt(self, scheme, pub, omega, table, text, path):
        """Encrypt and write the ciphertext file: the timed encrypt operation."""
        H = self.H
        with self.span(f"protocol.{scheme}_encrypt_message", "protocol"):
            if scheme == "dft":
                ct = H.dft_encrypt_message(pub, omega, text)
            else:
                ct = H.hgr_encrypt_message(pub, omega, table, text)
        with self.span("protocol.write_ciphertext", "protocol") as counters:
            H.write_ciphertext(ct, path)
        counters["bytes"] = path.stat().st_size
        return ct

    def decrypt(self, scheme, priv, table, path):
        """Read the ciphertext file and decrypt: the timed decrypt operation."""
        H = self.H
        with self.span("protocol.read_ciphertext", "protocol"):
            ct = H.read_ciphertext(path)
        with self.span(f"protocol.{scheme}_decrypt_message", "protocol"):
            if scheme == "dft":
                text = H.dft_decrypt_message(priv, ct)
            else:
                text = H.hgr_decrypt_message(priv, table, ct)
        return ct, text

    def replay_encrypt(self, scheme, pub, omega, table, text, ct) -> None:
        """Encrypt again stage by stage through the layers; must equal the protocol call."""
        H = self.H
        with self.span(f"replay.{scheme}_encrypt_message", "protocol"):
            with self.span("codec.text_to_codes", "codec"):
                codes = H.text_to_codes(text)
            with self.span("codec.pad_and_block", "codec"):
                blocks = H.pad_and_block(codes, pub.m)
            ring = self.ring(pub.n, pub.m, omega)
            if scheme == "dft":
                with self.span("dft.forward", "dft", blocks=len(blocks)):
                    out = tuple(H.dft_forward(ring, b).entries for b in blocks)
            else:
                lambdas = [[table.values[code] for code in b] for b in blocks]
                with self.span("group_ring.synthesis", "group_ring", blocks=len(blocks)):
                    out = tuple(H.coeffs_of_lambda(lam, ring).coeffs for lam in lambdas)
            with self.span("rsa.encrypt", "rsa"):
                c = H.rsa_encrypt(pub, ring.omega).value
        self.check((c, out) == (ct.c, ct.blocks), f"{scheme} encrypt replay differs from the protocol call")

    def replay_decrypt(self, scheme, priv, table, ct, text) -> None:
        """Decrypt again stage by stage through the layers; must equal the protocol call."""
        H = self.H
        with self.span(f"replay.{scheme}_decrypt_message", "protocol"):
            with self.span("protocol.recover_omega", "protocol"):
                omega = H.recover_omega(priv, ct.c).value
            ring = self.ring(ct.n, ct.m, omega)
            if scheme == "dft":
                with self.span("dft.inverse", "dft", blocks=len(ct.blocks)):
                    codes = [v for b in ct.blocks for v in H.dft_inverse(ring, b).entries]
                with self.span("codec.codes_to_text", "codec"):
                    got = H.codes_to_text(codes)
            else:
                with self.span("group_ring.spectrum", "group_ring", blocks=len(ct.blocks)):
                    spectra = [H.lambda_of(H.GroupRingElement(b, ring)) for b in ct.blocks]
                with self.span("codec.unapply_table", "codec"):
                    got = "".join(H.unapply_table(s, table) for s in spectra)
        self.check(got.rstrip(" ") == text, f"{scheme} decrypt replay differs from the protocol call")

    def check_ciphertext(self, scheme, path, text, key, omega, table_values) -> None:
        """Header, RSA transport value, block count, and sampled blocks against the oracle."""
        header, n, m, c, lines = oracle.read_ciphertext(path)
        d = oracle.private_exponent(key.primes, key.e)
        self.check(header == f"RSA-{scheme.upper()} v1" and (n, m) == (key.n, key.m), f"{scheme} header")
        self.check(c == pow(omega, key.e, n) and pow(c, d, n) == omega, f"{scheme} c is not omega^e")
        blocks = oracle.padded_blocks(text, m)
        self.check(len(lines) == len(blocks), f"{scheme} block count")
        count = min(len(blocks), len(lines))
        for i in self.rng.sample(range(count), min(SAMPLE_BLOCKS, count)):
            got = tuple(oracle.block(lines[i]))
            if scheme == "dft":
                ok = got == oracle.dft(n, m, omega, blocks[i])
            else:
                ok = oracle.spectrum(n, m, omega, got) == tuple(table_values[s] for s in blocks[i])
            self.check(ok, f"{scheme} block {i} differs from the oracle")

    def session(self, scheme: str) -> None:
        """One in-process session of `scheme` on the workload's message."""
        key, text = self.w.key, self.text
        path = self.dir / f"{scheme}.ct"
        secs, ct = self.op(self.encrypt, scheme, self.pub, key.omega, self.table, text, path)
        self.sample(f"{scheme}_encrypt_chars_per_s", len(text) / secs)
        if self.tracer:
            self.replay_encrypt(scheme, self.pub, key.omega, self.table, text, ct)
        self.check_ciphertext(scheme, path, text, key, key.omega, self.table.values)
        secs, (ct, got) = self.op(self.decrypt, scheme, self.priv, self.table, path)
        self.sample(f"{scheme}_decrypt_chars_per_s", len(text) / secs)
        if self.tracer:
            self.replay_decrypt(scheme, self.priv, self.table, ct, got)
        self.check(got == text, f"{scheme} session does not round-trip")

    # -- the CLI session --------------------------------------------------

    def cli_session(self) -> None:
        """keygen, choose-omega, hgr-table, then encrypt and decrypt with both schemes."""
        key, text, d = self.w.key, self.cli_text, self.dir / "cli"
        d.mkdir(exist_ok=True)
        (d / "message.txt").write_text(text + "\n", encoding="utf-8")
        out = self.cli(
            "keygen", "--primes", ",".join(map(str, key.primes)), "--exps", ",".join("1" for _ in key.primes),
            "--pub-exp", str(key.e), "--m", str(key.m), "-o", "keys", cwd=d,
        )
        self.check(
            f"n={key.n}\n" in out and f"d={oracle.private_exponent(key.primes, key.e)}\n" in out,
            "keygen output",
        )
        out = self.cli("choose-omega", "--pub", "keys/public.key", "--seed", str(self.omega_seed), cwd=d)
        fields = dict(line.split("=", 1) for line in out.split())
        omega, c = int(fields["omega"]), int(fields["c"])
        self.check(oracle.is_root(key.primes, key.m, omega) and c == pow(omega, key.e, key.n), "choose-omega output")
        self.cli("hgr-table", "--pub", "keys/public.key", "--seed", str(self.table_seed), "-o", "table.txt", cwd=d)
        table_values = oracle.read_table(d / "table.txt")
        self.check_table(table_values, key.n)
        if self.tracer:
            self.replay_cli_setup(d, omega, c)
        for scheme in SCHEMES:
            table = ("--table", "table.txt") if scheme == "hgr" else ()
            self.cli(
                f"{scheme}-encrypt", "--pub", "keys/public.key", "--omega", str(omega), *table,
                "--in", "message.txt", "-o", f"{scheme}.ct", cwd=d,
            )
            self.check_ciphertext(scheme, d / f"{scheme}.ct", text, key, omega, table_values)
            out = self.cli(
                f"{scheme}-decrypt", "--priv", "keys/private.key", *table, "--in", f"{scheme}.ct", cwd=d
            )
            self.check(out == text + "\n", f"CLI {scheme} session does not round-trip")
            if self.tracer:
                self.replay_cli_session(d, scheme, omega)

    def replay_cli_setup(self, d: Path, omega: int, c: int) -> None:
        """The library calls behind keygen, choose-omega and hgr-table; outputs must match."""
        H, key = self.H, self.w.key
        with self.span("rsa.keygen", "rsa"):
            pub, priv = H.keygen(key.primes, (1,) * len(key.primes), e=key.e, m=key.m)
        self.check(
            H.rsa.render_public_key(pub) == (d / "keys/public.key").read_text()
            and H.rsa.render_private_key(priv) == (d / "keys/private.key").read_text(),
            "keygen replay differs from the CLI key files",
        )
        with self.span("rsa.read_key", "rsa"):
            pub = H.read_public_key(d / "keys/public.key")
        with self.span("protocol.choose_omega", "protocol"):
            got, got_c = H.choose_omega(pub, seed=self.omega_seed)
        with self.span("analysis.is_primitive_root", "analysis"):
            ok = H.is_primitive_root_of_unity(pub.n, pub.m, got.value)
        self.check(ok and (got.value, got_c) == (omega, c), "choose-omega replay differs from the CLI")
        with self.span("codec.gen_unit_table", "codec"):
            table = H.gen_unit_table(pub.n, self.table_seed)
        self.check(H.codec.render_table(table) == (d / "table.txt").read_text(), "hgr-table replay differs")

    def replay_cli_session(self, d: Path, scheme: str, omega: int) -> None:
        """The library calls behind <scheme>-encrypt and -decrypt; outputs must match the CLI's."""
        H, replay = self.H, self.dir / "replay.ct"
        with self.span("rsa.read_key", "rsa"):
            pub = H.read_public_key(d / "keys/public.key")
        with self.span("rsa.read_key", "rsa"):
            priv = H.read_private_key(d / "keys/private.key")
        table = None
        if scheme == "hgr":
            with self.span("codec.read_table", "codec"):
                table = H.read_table(d / "table.txt")
        ct = self.encrypt(scheme, pub, omega, table, self.cli_text, replay)
        self.replay_encrypt(scheme, pub, omega, table, self.cli_text, ct)
        self.check(replay.read_bytes() == (d / f"{scheme}.ct").read_bytes(), f"{scheme}-encrypt replay differs")
        ct, text = self.decrypt(scheme, priv, table, d / f"{scheme}.ct")
        self.replay_decrypt(scheme, priv, table, ct, text)
        self.check(text == self.cli_text, f"{scheme}-decrypt replay differs")

    # -- root analysis ----------------------------------------------------

    def analysis(self) -> None:
        """analyze on every modulus of the workload."""
        for n in self.w.analyze:
            path = self.dir / f"analyze-{n}.txt"
            self.sample(f"analyze_s:{n}", self.in_process("analyze", str(n), "-o", str(path)))
            self.check_analysis(n, path)
            if self.tracer:
                self.replay_analyze(n)

    def find_omega(self) -> None:
        """find-omega on the workload's modulus, checked against that modulus's analyze report."""
        n, m = self.w.find_omega
        path = self.dir / "find-omega.txt"
        self.sample("find_omega_s", self.in_process("find-omega", str(n), str(m), "-o", str(path)))
        root = int(path.read_text())
        rep = self.analyses.get(n, (b"", {}))[1]
        if "primes" not in rep:  # analyze failed or was unreadable, already counted
            return
        if (n, m) not in self.smallest:
            self.smallest[n, m] = oracle.smallest_root(rep["primes"], m)
        self.check(root == self.smallest[n, m] and oracle.is_root(rep["primes"], m, root), "find-omega is not the least root")
        if m == rep["psi"]:
            self.check(root == rep["roots"][0], "find-omega differs from the first enumerated root")
        if self.tracer:
            self.replay_find_omega(n, m, root)

    def check_analysis(self, n: int, path: Path) -> None:
        """Full oracle check the first time a modulus is analyzed; the same bytes after."""
        data = path.read_bytes()
        if n in self.analyses:
            self.check(data == self.analyses[n][0], f"analyze {n} output changed between rounds")
            return
        problems, rep = oracle.check_analysis(n, data.decode("utf-8"), self.rng)
        self.problems += problems
        self.analyses[n] = (data, rep)

    def replay_analyze(self, n: int) -> None:
        """factorize and enumerate again through the library, then CRT on the roots' own components."""
        H, rep = self.H, self.analyses[n][1]
        with self.span("replay.analyze", "analysis"):
            with self.span("arith.factorize", "arith"):
                f = H.factorize(n)
            psi = H.halidon_function_psi(f)
            with self.span("analysis.enumerate_roots", "analysis") as counters:
                roots = H.enumerate_primitive_roots(n, psi).roots_found
            counters["roots"] = len(roots)
        self.check(list(roots) == rep.get("roots"), f"enumeration of {n} differs from analyze")
        sample = self.rng.sample(roots, min(CRT_SAMPLE, len(roots)))
        moduli = [p**k for p, k in f.pairs]
        parts = [[H.Residue(r % q, q) for q in moduli] for r in sample]
        with self.span("arith.crt_combine", "arith", calls=len(parts)):
            got = [H.crt_combine(p).value for p in parts]
        self.check(got == sample, f"CRT of the components of {n} differs")

    def replay_find_omega(self, n: int, m: int, root: int) -> None:
        H = self.H
        with self.span("replay.find_omega", "analysis"):
            with self.span("arith.factorize", "arith"):
                f = H.factorize(n)
            with self.span("analysis.find_root", "analysis"):
                got = H.find_primitive_root(f, m).value
        with self.span("analysis.is_primitive_root", "analysis"):
            ok = H.is_primitive_root_of_unity(n, m, got)
        self.check(ok and got == root, "find-omega replay differs")

    # -- the run ----------------------------------------------------------

    def round(self, index: int) -> None:
        if self.tracer:
            self.tracer.group = f"round-{index}"
        w = self.w
        self.setup()
        parts = []
        for i in range(max(w.sessions, w.analyses, w.finds, w.cli_sessions)):
            if i < w.sessions:
                parts += [partial(self.session, scheme) for scheme in SCHEMES]
            if i < w.analyses:
                parts.append(self.analysis)
            if i < w.finds:
                parts.append(self.find_omega)
            if i < w.cli_sessions:
                parts.append(self.cli_session)
        if self.tracer:
            parts.append(self.start_ups)
        for part in parts:
            try:
                part()
            except OpFailed:  # counted in `failed`; the round goes on with its next part
                pass
            except (IndexError, KeyError, ValueError) as exc:  # output the checks cannot read
                self.problems.append(f"unreadable output: {exc!r}")

    def start_ups(self) -> None:
        """The bare interpreter and the CLI's cold start, traced only."""
        with self.span("cli.interpreter", "cli"):
            self.op(self._subprocess, ["-c", "pass"], self.dir)
        with self.span("cli.cold_start", "cli"):
            self.op(self._subprocess, ["-m", "halidon", "--help"], self.dir)

    def run(self, seconds: float) -> int:
        """Set up SETUPS times, then start whole rounds until `seconds` have passed."""
        for i in range(SETUPS):
            if self.tracer:
                self.tracer.group = f"setup-{i}"
            self.setup()
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < seconds:
            self.round(rounds)
            rounds += 1
        return rounds
