"""Byte-parity check of the halidon CLI between two source trees.

Runs one fixed list of `python -m halidon` commands against each tree and
reports every command whose stdout, stderr or exit code differs, and
every written file that differs or that only one side wrote:

    python tools/cli_parity.py BASE_SRC NEW_SRC [--keep DIR] [--list]
    python tools/cli_parity.py --write-digests FILE SRC

BASE_SRC and NEW_SRC are `src` directories, each holding a `halidon`
package.  Each tree runs in a fresh directory of its own that holds the
same input files, with PYTHONPATH set to that tree, and every command
names its files by relative path, so the two runs print the same bytes
when the two trees behave the same.  The commands run one at a time, in
order, since later ones read the keys, tables and ciphertexts that
earlier ones wrote.

The list covers keygen, choose-omega, recover-omega and hgr-table, both
schemes' encrypt and decrypt of 5-, 333- and 10,000-character messages
under twelve keys (and of a 100,000-character message, 496 blocks, under
the m = 202 key), dft, idft, conv, gr, analyze and find-omega (with
every listing of the 333,332 roots of 1000003; --count 3 and a seeded
--random draw at its indices 166667, 333334 and 500001, whose root walks
take the wheels gcd(m, 6) = 1, 2 and 3; --count 1000 of 1000003,
--count 8 and 9 of 491063 at m = 202 and --count 1 of 167 at m = 166,
about the trial that finds the first K roots where they are dense;
plain find-omega at 13333, m = 33 and at 1301, m = 65, whose least
roots lie past the trial's cap of tests; analyze and every find-omega
listing at m = 30 of the five-prime product 31*61*151*181*211, whose
roots are summed over five components; analyze of the semiprime
998244359987710471 and of 10201 = 101^2), conv at slots of 5 to
17 bytes (m = 1, 12 and 38 under a 41-bit prime, a modulus above 2^64
and an odd composite), dft and idft of one vector, residues and all
n-1, at m = 50 and 100 (the chirp's negacyclic fold at both even m mod
4, past the columns' longest block), at m = 15 under n = 950000071 and
3500041 (the chirp's cyclic fold in slots of 8 and 6 bytes) and at
m = 37 and 38 under the roots of those keys (Rader's convolution at one
block), both schemes' sessions of the 333-character message under a
second root of the m = 202 and m = 37 keys (SECOND_ROOTS), the
malformed-file and refusal cases (among them choose-omega --attempts 0
and -1, conv at m = 0, keygen of 7*13 at m = 5, which does not divide
psi(91) = 6, dft-encrypt and hgr-encrypt of 2 characters under a key of
m = 10^7, whose one block is over the size cap, and choose-omega,
dft-encrypt and recover-omega under key files holding what keygen
refuses: n = 0 or 1, e = 0, m = 0; both schemes' encrypt and decrypt
under a key of m = 1, which keygen and hgr-table take and every session
refuses), and the ciphertext reader's edges
(leading zeros, an entry past the digit limit, a leading or trailing
space, an empty row at m = 6, 1 and 0, a digit inside `block=`,
m = 10^12, a tab between entries, a `-` entry).  Vectors are
space-separated, as --vec takes them, so dft, idft, conv and gr run
their transforms; one comma-separated conv checks the refusal.
The keys at m = 37, 38 and 202 take the kernel's Rader method, those at
m = 10 and 32 its columns on long messages, and the rest the chirp.  At
two of the keys (n = 1099511627873 and 876706561) choose-omega cannot
find a root from the public key, so their sessions use a known root.

--write-digests runs the commands once against SRC and writes their
digest table to FILE: one line per command, `ID EXIT-CODE
SHA256(STDOUT) SHA256(STDERR)`, then `file NAME SHA256` for each file
the commands wrote.  tests/test_cli_digests.py runs the same commands
in-process through halidon.cli.main and compares them with the table
checked in as tests/cli_digests.txt, so tier-1 pins the CLI's bytes
between two-tree runs.  A change that alters an output on purpose
rewrites that table.  Every run unsets the HALIDON_* variables and
sets COLUMNS=80, so argparse wraps its usage lines the same way.

Exit status: 0 when everything matches, 1 when something differs, 2 on
a usage error.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# (directory, primes, exponents, m, public exponent e that keygen picks,
# a primitive m-th root of unity mod n)
KEYS = [
    ("m202", "607,809", "1,1", 202, 5, 69293),
    ("m10", "601,811", "1,1", 10, 7, 146221),
    ("z91", "7,13", "1,1", 6, 5, 17),
    ("p31", "31", "1", 10, 7, 23),
    ("p1000081", "1000081", "1", 15, 7, 339085),
    ("p500009", "500009", "1", 4, 3, 204621),
    ("p503297", "503297", "1", 256, 3, 172563),
    ("p2e40", "1099511627873", "1", 8, 3, 492802496977),
    ("p876706561", "876706561", "1", 12, 7, 424276159),
    ("m32", "97,193", "1,1", 32, 5, 16621),
    ("p1000037", "1000037", "1", 37, 3, 18668),
    ("m38", "229,419", "1,1", 38, 5, 630),
]
MESSAGE_LENGTHS = (5, 333, 10_000)
# the longest message, sent under the m202 key only
LONG_MESSAGE = ("m202", 100_000)
SYMBOLS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ :.-abcxyz"
FIVE_PRIME = 31 * 61 * 151 * 181 * 211


def _modulus(primes: str, exps: str) -> int:
    n = 1
    for p, e in zip(primes.split(","), exps.split(",")):
        n *= int(p) ** int(e)
    return n


def _numbers(count: int, modulus: int, seed: int) -> list[int]:
    """`count` residues mod `modulus` from a fixed linear congruence."""
    out, x = [], seed
    for _ in range(count):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        out.append((x >> 11) % modulus)
    return out


def _vector(count: int, modulus: int, seed: int) -> str:
    """`count` residues, space-separated as the CLI's --vec takes them."""
    return " ".join(map(str, _numbers(count, modulus, seed)))


def _conv_commands() -> list[tuple[str, list]]:
    """conv at m = 1, 12 and 38: residues against entries near n, the
    first negative and the last unreduced.  Slots take 11 bytes at the
    41-bit prime and 17 above 2^64 (to_bytes), 5 or 6 at the odd
    composite (strided copies)."""
    cmds = []
    for n in (1099511627873, 2**64 + 13, 601 * 811):
        for m in (1, 12, 38):
            b = [n - 1 - v for v in _numbers(m, n, n % 1000)]
            b[0] = -b[0] - 1
            b[-1] += 2 * n
            cmds.append((f"conv-{n}-m{m}", [
                "conv", "--n", str(n), "--m", str(m),
                "--vec-a", _vector(m, n, m), "--vec-b", " ".join(map(str, b)),
            ]))
    return cmds


# (n, m, omega) of the one-vector dft and idft commands: the chirp's
# negacyclic fold at m = 50 (2 mod 4) and m = 100 (0 mod 4), neither of
# them 2p; its cyclic fold at m = 15, in 8-byte slots at n = 950000071
# and 6-byte ones at n = 3500041; and Rader's convolution at one block,
# under the roots of the p1000037 (m = 37) and m38 keys
ONE_VECTOR_RINGS = [
    (1000151, 50, 4112), (1001401, 100, 1866),
    (950000071, 15, 25717637), (3500041, 15, 742154),
    (1000037, 37, 18668), (229 * 419, 38, 630),
]


def _one_vector_commands() -> list[tuple[str, list]]:
    """dft and idft of one vector, residues and then all n-1, in each of
    ONE_VECTOR_RINGS."""
    cmds = []
    for n, m, omega in ONE_VECTOR_RINGS:
        ring = ["--n", str(n), "--m", str(m), "--omega", str(omega)]
        full = " ".join([str(n - 1)] * m)
        for kind, vec in (("", _vector(m, n, m)), ("-full", full)):
            cmds += [
                (f"{action}-{n}-m{m}{kind}", [action, *ring, "--vec", vec])
                for action in ("dft", "idft")
            ]
    return cmds


# (key directory, a second primitive m-th root of unity mod n): the cube
# of the m202 key's root, 69293^3 = 269799 mod 491063 (gcd(3, 202) = 1),
# and the square of the p1000037 key's, 18668^2 = 481348 mod 1000037
# (gcd(2, 37) = 1).  Run after the first root's sessions, in one process
# (tests/test_cli_digests.py) they share the Rader index maps kept for m.
SECOND_ROOTS = [("m202", 269799), ("p1000037", 481348)]


def _second_root_commands() -> list[tuple[str, list]]:
    """Both schemes' encrypt and decrypt of the 333-character message
    under each key's second root, into files of their own."""
    cmds = []
    for name, omega in SECOND_ROOTS:
        pub, priv = f"{name}/public.key", f"{name}/private.key"
        table, out = f"{name}/table.txt", f"{name}/333-root2"
        w, msg = str(omega), "msg/333.txt"
        cmds += [
            (f"{name}:dft-encrypt-333-root2", ["dft-encrypt", "--pub", pub,
             "--omega", w, "--in", msg, "-o", f"{out}.dft"]),
            (f"{name}:dft-decrypt-333-root2", ["dft-decrypt", "--priv", priv,
             "--in", f"{out}.dft"]),
            (f"{name}:hgr-encrypt-333-root2", ["hgr-encrypt", "--pub", pub,
             "--omega", w, "--table", table, "--in", msg,
             "-o", f"{out}.hgr"]),
            (f"{name}:hgr-decrypt-333-root2", ["hgr-decrypt", "--priv", priv,
             "--table", table, "--in", f"{out}.hgr"]),
        ]
    return cmds


def inputs() -> dict[str, bytes]:
    """The files every run starts with: messages and malformed files."""
    files = {}
    for length in (*MESSAGE_LENGTHS, LONG_MESSAGE[1]):
        text = "".join(SYMBOLS[i] for i in _numbers(length, len(SYMBOLS), 7))
        files[f"msg/{length}.txt"] = text.encode("ascii")
    files["msg/2.txt"] = b"HI"
    head = "RSA-DFT v1\nn=91\nm=6\nc=82\n"
    bad = {
        "header.ct": "RSA-DFT v2\nn=91\nm=6\nc=82\nblock=34 0 0 0 0 0\n",
        "no-rows.ct": head,
        "short-row.ct": head + "block=34 0 0\n",
        "long-row.ct": head + "block=34 0 0 0 0 0 1\n",
        "range.ct": head + "block=91 0 0 0 0 0\n",
        "c-range.ct": "RSA-DFT v1\nn=91\nm=6\nc=91\nblock=1 0 0 0 0 0\n",
        "non-integer.ct": head + "block=1 x 0 0 0 0\n",
        "two-spaces.ct": head + "block=1  0 0 0 0 0\n",
        "crlf.ct": head.replace("\n", "\r\n") + "block=34 0 0 0 0 0\r\n",
        "digits.ct": f"RSA-DFT v1\nn={'9' * 5000}\nm=6\nc=82\n"
        "block=34 0 0 0 0 0\n",
        "deep-fault.ct": head + "block=34 0 0 0 0 0\n" * 700
        + "block=34 0 0 0 0 91\n" + "block=1 2 3 4 5 6\n" * 10,
        "m7.ct": "RSA-DFT v1\nn=91\nm=7\nc=82\nblock=1 2 3 4 5 6 7\n",
        # the bulk reader's edges: leading zeros decrypt ("HELLO WORLD"),
        # the rest are refused and named by the line walk
        "leading-zeros.ct": head + "block=042 034 083 082 080 054\n"
        "block=062 040 029 082 068 002\n",
        "entry-digits.ct": head + f"block=34 0 0 0 0 {'9' * 5000}\n",
        "leading-space.ct": head + "block= 34 0 0 0 0 0\n",
        "trailing-space.ct": head + "block=34 0 0 0 0 0 \n",
        "empty-row.ct": head + "block=\n",
        "empty-row-m1.ct": "RSA-DFT v1\nn=91\nm=1\nc=82\nblock=\n",
        "digit-in-prefix.ct": head + "bl5ock=34 0 0 0 0 0\n",
        "empty-row-m0.ct": "RSA-DFT v1\nn=91\nm=0\nc=82\nblock=\n",
        "huge-m.ct": "RSA-DFT v1\nn=91\nm=1000000000000\nc=82\n"
        "block=34 0 0 0 0 0\n",
        "tab.ct": head + "block=34\t0 0 0 0 0\n",
        "minus.ct": head + "block=34 -1 0 0 0 0\n",
        "hgr-header.ct": "RSA-HGR v1\nn=91\nm=6\nc=82\nblock=1 2 3 4 5 6\n",
        "public.key": "HALIDON-RSA PUBLIC v1\nn=91\ne=5\n",
        "private.key": "HALIDON-RSA PRIVATE v1\nn=91\nd=29\nphi=72\nm=6\n"
        "factors=7^1,13^2\n",
        "table.txt": "HGR-TABLE v1\nn=91\n0=8\n",
        # fields keygen never writes: n < 2, e < 1, m < 1
        "public-n0.key": "HALIDON-RSA PUBLIC v1\nn=0\ne=5\nm=6\n",
        "public-n1.key": "HALIDON-RSA PUBLIC v1\nn=1\ne=5\nm=6\n",
        "public-e0.key": "HALIDON-RSA PUBLIC v1\nn=491063\ne=0\nm=202\n",
        "public-m0.key": "HALIDON-RSA PUBLIC v1\nn=491063\ne=5\nm=0\n",
        "private-m0.key": "HALIDON-RSA PRIVATE v1\nn=491063\nd=293789\n"
        "phi=489648\nm=0\nfactors=607^1,809^1\n",
        "message.txt": "HELLO # WORLD\n",
        # "HI" at m = 1 under n = 91, which the sessions refuse
        "m1.dft": "RSA-DFT v1\nn=91\nm=1\nc=1\nblock=17\nblock=18\n",
        "m1.hgr": "RSA-HGR v1\nn=91\nm=1\nc=1\nblock=17\nblock=18\n",
    }
    for name, text in bad.items():
        files[f"bad/{name}"] = text.encode("utf-8")
    files["bad/not-utf8.txt"] = b"HELLO \xff\xfe\n"
    return files


def _key_commands(name, primes, exps, m, e, omega) -> list[tuple[str, list]]:
    n = _modulus(primes, exps)
    pub, priv = f"{name}/public.key", f"{name}/private.key"
    table = f"{name}/table.txt"
    cmds = [
        ("keygen", ["keygen", "--primes", primes, "--exps", exps,
                    "--m", str(m), "-o", name]),
        ("choose-omega", ["choose-omega", "--pub", pub, "--seed", "1"]),
        ("choose-omega-o", ["choose-omega", "--pub", pub, "--seed", "2",
                            "-o", f"{name}/omega.txt"]),
        ("choose-omega-3", ["choose-omega", "--pub", pub, "--seed", "1",
                            "--attempts", "3"]),
        ("recover-omega", ["recover-omega", "--priv", priv,
                           "--c", str(pow(omega, e, n))]),
        ("recover-omega-bad", ["recover-omega", "--priv", priv, "--c", "1"]),
        ("hgr-table", ["hgr-table", "--pub", pub, "--seed", "3"]),
        ("hgr-table-o", ["hgr-table", "--pub", pub, "--seed", "2",
                         "-o", table]),
    ]
    w = str(omega)
    lengths = MESSAGE_LENGTHS
    if name == LONG_MESSAGE[0]:
        lengths += LONG_MESSAGE[1:]
    for length in lengths:
        msg, out = f"msg/{length}.txt", f"{name}/{length}"
        cmds += [
            (f"dft-encrypt-{length}", ["dft-encrypt", "--pub", pub,
             "--omega", w, "--in", msg, "-o", f"{out}.dft"]),
            (f"dft-decrypt-{length}", ["dft-decrypt", "--priv", priv,
             "--in", f"{out}.dft"]),
            (f"hgr-encrypt-{length}", ["hgr-encrypt", "--pub", pub,
             "--omega", w, "--table", table, "--in", msg]),
            (f"hgr-encrypt-o-{length}", ["hgr-encrypt", "--pub", pub,
             "--omega", w, "--table", table, "--in", msg,
             "-o", f"{out}.hgr"]),
            (f"hgr-decrypt-{length}", ["hgr-decrypt", "--priv", priv,
             "--table", table, "--in", f"{out}.hgr"]),
        ]
    cmds += [
        ("dft-decrypt-keep", ["dft-decrypt", "--priv", priv, "--in",
                              f"{name}/5.dft", "--keep-padding", "-o",
                              f"{name}/5.dft.txt"]),
        ("hgr-decrypt-keep", ["hgr-decrypt", "--priv", priv, "--table",
                              table, "--in", f"{name}/5.hgr",
                              "--keep-padding"]),
    ]
    ring = ["--n", str(n), "--m", str(m), "--omega", str(omega)]
    vec = _vector(m, n, m)
    cmds += [
        ("dft", ["dft", *ring, "--vec", vec]),
        ("idft", ["idft", *ring, "--vec", vec, "-o", f"{name}/idft.txt"]),
        ("dft-short", ["dft", *ring, "--vec", _vector(m - 1, n, 1)]),
    ]
    if m <= 32:
        cmds += [(f"gr-{action}", ["gr", action, *ring, "--vec", vec])
                 for action in ("encode", "decode", "invert", "check")]
    if n < 10**7:
        cmds += [
            ("find-omega", ["find-omega", str(n), str(m)]),
            ("find-omega-count", ["find-omega", str(n), str(m),
                                  "--count", "3"]),
            ("find-omega-random", ["find-omega", str(n), str(m),
                                   "--random", "--seed", "5"]),
            ("analyze", ["analyze", str(n)]),
        ]
    return [(f"{name}:{cid}", argv) for cid, argv in cmds]


def commands() -> list[tuple[str, list]]:
    """(id, argv after `python -m halidon`) for every command, in order."""
    cmds = []
    for key in KEYS:
        cmds += _key_commands(*key)
    cmds += _second_root_commands()
    z91 = ["--priv", "z91/private.key"]
    cmds += [
        ("find-omega-all", ["find-omega", "91", "6", "--all"]),
        ("find-omega-all-m32", ["find-omega", "18721", "32", "--all",
                                "-o", "roots.txt"]),
        # 333,332 roots fill a third of Z_1000003: the dense listings
        ("find-omega-dense", ["find-omega", "1000003", "1000002"]),
        ("find-omega-dense-count", ["find-omega", "1000003", "1000002",
                                    "--count", "3"]),
        ("find-omega-dense-all", ["find-omega", "1000003", "1000002",
                                  "--all", "-o", "roots-1000003.txt"]),
        ("find-omega-dense-random", ["find-omega", "1000003", "1000002",
                                     "--random", "--seed", "5"]),
        ("analyze-dense", ["analyze", "1000003", "-o",
                           "analyze-1000003.txt"]),
        # dense enough for the trial: the first K roots of 1000003 by
        # ascending tests, at 491063 = 607 * 809, m = 202, K = 8 (the
        # largest K whose tests weigh no more than the listing: 8 * n <=
        # 416 * 10000) and K = 9 (no trial), and at 167, m = 166, K = 1,
        # whose 3 tests find no root, so the listing runs after all
        ("find-omega-dense-count-1000", ["find-omega", "1000003", "1000002",
                                         "--count", "1000"]),
        *[
            (f"find-omega-491063-count-{k}", ["find-omega", "491063", "202",
                                              "--count", str(k)])
            for k in (8, 9)
        ],
        ("find-omega-count-fallback", ["find-omega", "167", "166",
                                       "--count", "1"]),
        # dense, but the least root lies past the L tests the trial may
        # take: 90 at 13333 = 67 * 199, m = 33 (L = 40), and 121 at the
        # prime 1301, m = 65 (L = 48); the lists find it
        ("find-omega-fallback", ["find-omega", "13333", "33"]),
        ("find-omega-fallback-prime", ["find-omega", "1301", "65"]),
        # index 1000002/6, /3 and /2 walk wheels w = gcd(M, 6) of 1, 2, 3
        *[
            (f"find-omega-1000003-m{m}{cid}", ["find-omega", "1000003",
                                               str(m), *flags])
            for m in (166667, 333334, 500001)
            for cid, flags in (("-count", ["--count", "3"]),
                               ("-random", ["--random", "--seed", "5"]))
        ],
        # five components: roots summed in sorted runs, 32,768 at m = 30
        ("analyze-five-prime", ["analyze", str(FIVE_PRIME)]),
        ("find-omega-five-prime", ["find-omega", str(FIVE_PRIME), "30"]),
        ("find-omega-five-prime-count", ["find-omega", str(FIVE_PRIME),
                                         "30", "--count", "3"]),
        ("find-omega-five-prime-random", ["find-omega", str(FIVE_PRIME),
                                          "30", "--random", "--seed", "5"]),
        ("find-omega-five-prime-all", ["find-omega", str(FIVE_PRIME), "30",
                                       "--all", "-o", "roots-five-prime.txt"]),
        ("analyze-semiprime", ["analyze", "998244359987710471"]),
        ("analyze-101-squared", ["analyze", "10201"]),
        ("find-omega-none", ["find-omega", "91", "7"]),
        ("find-omega-n0", ["find-omega", "0", "6"]),
        ("analyze-49", ["analyze", "49"]),
        ("analyze-1", ["analyze", "1"]),
        ("analyze-big-prime", ["analyze", "1000000007"]),
        ("conv", ["conv", "--n", "91", "--m", "6", "--vec-a", "2 1 2 3 5 10",
                  "--vec-b", "1 1 0 0 0 0"]),
        ("conv-n0", ["conv", "--n", "0", "--m", "2", "--vec-a", "1 2",
                     "--vec-b", "3 4"]),
        ("conv-comma", ["conv", "--n", "91", "--m", "2", "--vec-a", "1,2",
                        "--vec-b", "3,4"]),
        ("conv-m0", ["conv", "--n", "7", "--m", "0", "--vec-a", "",
                     "--vec-b", ""]),
        *_conv_commands(),
        *_one_vector_commands(),
        ("dft-n0", ["dft", "--n", "0", "--m", "6", "--omega", "1",
                    "--vec", "1 2 3 4 5 6"]),
        ("dft-not-root", ["dft", "--n", "91", "--m", "6", "--omega", "2",
                          "--vec", "1 2 3 4 5 6"]),
        ("gr-not-unit", ["gr", "check", "--n", "91", "--m", "6", "--omega",
                         "17", "--vec", "0 0 0 0 0 0"]),
        ("keygen-e0", ["keygen", "--primes", "7,13", "--exps", "1,1",
                       "--pub-exp", "0", "-o", "bad-e"]),
        ("keygen-e-shared", ["keygen", "--primes", "7,13", "--exps", "1,1",
                             "--pub-exp", "3", "-o", "bad-e"]),
        ("keygen-not-prime", ["keygen", "--primes", "9,13", "--exps", "1,1",
                              "-o", "bad-p"]),
        ("keygen-m5", ["keygen", "--primes", "7,13", "--exps", "1,1",
                       "--m", "5", "-o", "bad-m"]),
        ("deterministic-table", ["--deterministic", "hgr-table", "--pub",
                                 "z91/public.key"]),
        ("no-command", []),
        ("scheme-mismatch", ["dft-decrypt", *z91, "--in", "z91/5.hgr"]),
        ("wrong-key", ["dft-decrypt", "--priv", "m10/private.key",
                       "--in", "z91/5.dft"]),
        ("wrong-table", ["hgr-decrypt", *z91, "--table", "m10/table.txt",
                         "--in", "z91/5.hgr"]),
        ("other-table", ["hgr-decrypt", "--priv", "m10/private.key",
                         "--table", "m202/table.txt", "--in", "m10/5.hgr"]),
        ("missing-file", ["dft-decrypt", *z91, "--in", "nowhere.ct"]),
        ("bad-message", ["dft-encrypt", "--pub", "z91/public.key", "--omega",
                         "17", "--in", "bad/message.txt"]),
        ("not-utf8-message", ["dft-encrypt", "--pub", "z91/public.key",
                              "--omega", "17", "--in", "bad/not-utf8.txt"]),
        ("bad-omega", ["dft-encrypt", "--pub", "z91/public.key", "--omega",
                       "2", "--in", "msg/5.txt"]),
        ("bad-public-key", ["choose-omega", "--pub", "bad/public.key"]),
        # fewer than one draw is a usage error, refused before any draw
        *[
            (f"choose-omega-attempts{k}", ["choose-omega", "--pub",
                                           "m202/public.key", "--seed", "1",
                                           "--attempts", k, "-o",
                                           f"attempts{k}.txt"])
            for k in ("0", "-1")
        ],
        ("bad-private-key", ["dft-decrypt", "--priv", "bad/private.key",
                             "--in", "z91/5.dft"]),
        ("bad-table", ["hgr-encrypt", "--pub", "z91/public.key", "--omega",
                       "17", "--table", "bad/table.txt", "--in",
                       "msg/5.txt"]),
        # key fields keygen refuses: exit 2 naming the line, no file
        *[
            (f"{command}-{key}", [command, "--pub", f"bad/public-{key}.key",
                                  *flags, "-o", f"bad-{key}.out"])
            for key in ("n0", "n1", "e0", "m0")
            for command, flags in (
                ("choose-omega", ["--seed", "1"]),
                ("dft-encrypt", ["--omega", "69293", "--in", "msg/5.txt"]),
            )
        ],
        ("recover-omega-m0", ["recover-omega", "--priv",
                              "bad/private-m0.key", "--c", "1",
                              "-o", "bad-m0.out"]),
        # at m = 1 the blocks would be the symbol codes: keygen and
        # hgr-table take the key, each session refuses it, no file
        ("keygen-m1", ["keygen", "--primes", "7,13", "--exps", "1,1",
                       "--m", "1", "-o", "m1"]),
        ("hgr-table-m1", ["hgr-table", "--pub", "m1/public.key", "--seed",
                          "1", "-o", "m1/table.txt"]),
        ("dft-encrypt-m1", ["dft-encrypt", "--pub", "m1/public.key",
                            "--omega", "1", "--in", "msg/2.txt",
                            "-o", "m1/2.dft"]),
        ("hgr-encrypt-m1", ["hgr-encrypt", "--pub", "m1/public.key",
                            "--omega", "1", "--table", "m1/table.txt",
                            "--in", "msg/2.txt", "-o", "m1/2.hgr"]),
        ("dft-decrypt-m1", ["dft-decrypt", "--priv", "m1/private.key",
                            "--in", "bad/m1.dft", "-o", "m1/2.dft.txt"]),
        ("hgr-decrypt-m1", ["hgr-decrypt", "--priv", "m1/private.key",
                            "--table", "m1/table.txt", "--in", "bad/m1.hgr",
                            "-o", "m1/2.hgr.txt"]),
        # one block at m = 10^7 is over the size cap: refused, no file
        ("keygen-m1e7", ["keygen", "--primes", "30000001", "--exps", "1",
                         "--m", "10000000", "-o", "m1e7"]),
        ("hgr-table-m1e7", ["hgr-table", "--pub", "m1e7/public.key",
                            "--seed", "1", "-o", "m1e7/table.txt"]),
        ("dft-encrypt-m1e7", ["dft-encrypt", "--pub", "m1e7/public.key",
                              "--omega", "343", "--in", "msg/2.txt",
                              "-o", "m1e7/2.dft"]),
        ("hgr-encrypt-m1e7", ["hgr-encrypt", "--pub", "m1e7/public.key",
                              "--omega", "343", "--table", "m1e7/table.txt",
                              "--in", "msg/2.txt", "-o", "m1e7/2.hgr"]),
    ]
    for name in sorted(n for n in inputs() if n.endswith(".ct")):
        cmds.append((f"read-{name}", ["dft-decrypt", *z91, "--in", name]))
    cmds.append(("read-hgr-as-hgr", ["hgr-decrypt", *z91, "--table",
                                     "z91/table.txt", "--in",
                                     "bad/hgr-header.ct"]))
    return cmds


def write_inputs(work: Path) -> None:
    for name, data in inputs().items():
        path = work / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def run(src: Path, work: Path, cmds) -> list[tuple[int, bytes, bytes]]:
    """Each command's (exit code, stdout, stderr), run from `work`."""
    write_inputs(work)
    env = {k: v for k, v in os.environ.items() if not k.startswith("HALIDON")}
    env["PYTHONPATH"] = str(src.resolve())
    env["COLUMNS"] = "80"
    results = []
    for _, argv in cmds:
        proc = subprocess.run(
            [sys.executable, "-m", "halidon", *argv],
            cwd=work, env=env, capture_output=True, timeout=600,
        )
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return results


def tree_files(work: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(work)): p.read_bytes()
        for p in sorted(work.rglob("*")) if p.is_file()
    }


def digest_table(cmds, results, files: dict[str, bytes]) -> list[str]:
    """The lines of the digest table for `results`, the commands' (exit
    code, stdout, stderr), and `files`, the run's directory as
    tree_files reads it; the inputs are left out."""
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    given = inputs()
    lines = [
        f"{cid} {code} {sha(out)} {sha(err)}"
        for (cid, _), (code, out, err) in zip(cmds, results)
    ]
    lines += [f"file {name} {sha(data)}" for name, data in files.items()
              if name not in given]
    return lines


def _first_difference(a: bytes, b: bytes) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for number, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return f"line {number}: {x[:160]!r} against {y[:160]!r}"
    return f"{len(lines_a)} lines against {len(lines_b)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, nargs="?",
                        help="src directory of the base")
    parser.add_argument("new", type=Path, nargs="?",
                        help="src directory of the change")
    parser.add_argument("--keep", type=Path,
                        help="run in DIR/base and DIR/new and keep them")
    parser.add_argument("--list", action="store_true",
                        help="print the commands and exit")
    parser.add_argument("--write-digests", type=Path, metavar="FILE",
                        help="run the commands against one SRC and write"
                        " their digest table to FILE")
    args = parser.parse_args(argv)
    cmds = commands()
    if args.list:
        for cid, cmd in cmds:
            print(cid, "python -m halidon", *cmd)
        return 0
    trees = (args.base,) if args.write_digests else (args.base, args.new)
    if args.write_digests and args.new is not None:
        parser.error("--write-digests takes one SRC")
    for src in trees:
        if src is None or not (src / "halidon" / "__init__.py").is_file():
            parser.error(f"{src} holds no halidon package")
    if args.write_digests:
        with tempfile.TemporaryDirectory(prefix="cli-digests-") as work:
            results = run(args.base, Path(work), cmds)
            table = digest_table(cmds, results, tree_files(Path(work)))
        args.write_digests.write_text("\n".join(table) + "\n")
        print(f"{len(cmds)} commands, {len(table) - len(cmds)} files")
        return 0
    root = args.keep or Path(tempfile.mkdtemp(prefix="cli-parity-"))
    try:
        works = [root / "base", root / "new"]
        for work in works:
            work.mkdir(parents=True)
        base, new = (run(s, w, cmds) for s, w in zip((args.base, args.new), works))
        files = [tree_files(w) for w in works]
    finally:
        if not args.keep:
            shutil.rmtree(root)
    differences = 0
    for (cid, cmd), old, now in zip(cmds, base, new):
        if old == now:
            continue
        differences += 1
        print(f"DIFF {cid}: python -m halidon {' '.join(cmd)}"[:300])
        if old[0] != now[0]:
            print(f"  exit code {old[0]} against {now[0]}")
        for what, a, b in (("stdout", old[1], now[1]), ("stderr", old[2], now[2])):
            if a != b:
                print(f"  {what} {_first_difference(a, b)}")
    for name in sorted(files[0].keys() | files[1].keys()):
        if files[0].get(name) != files[1].get(name):
            differences += 1
            side = ("only in base" if name not in files[1]
                    else "only in new" if name not in files[0] else "differs")
            print(f"DIFF file {name}: {side}")
    codes: dict[int, int] = {}
    for code, _, _ in new:
        codes[code] = codes.get(code, 0) + 1
    tally = ", ".join(f"{count} x {code}" for code, count in sorted(codes.items()))
    print(
        f"{len(cmds)} commands (exit codes of the new tree: {tally}), "
        f"{len(files[1])} files; {differences} differences"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
