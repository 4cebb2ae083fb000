"""Command-line front end.

Every subcommand is a thin shell over the library; results go to stdout
(or the -o file), diagnostics to stderr.  Exit codes: 0 success, 2
validation or usage error, 3 mathematical failure (non-units, invalid
roots, exhausted searches, wrong-key evidence, root lists over
analysis.MAX_ROOTS).

Vectors cross the boundary as quoted space-separated decimals, e.g.
--vec "2 1 2 3 5 10".  Randomized subcommands take --seed; without one a
fresh seed is drawn and echoed on stderr (forbidden under
--deterministic).  The environment variable HALIDON_FACTOR_BUDGET caps
the factoring work done by analyze/keygen-style commands.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from pathlib import Path

from . import protocol
from ._files import decimal_row, read_text
from .analysis import (
    HalidonRing,
    find_primitive_root,
    halidon_function_psi,
    require_index,
    root_row,
)
from .arith import euler_phi, factorize
from .codec import gen_unit_table, read_table, render_table
from .dft import cyclic_convolve, dft_forward, dft_inverse
from .errors import HalidonError
from .group_ring import (
    GroupRingElement,
    coeffs_of_lambda,
    first_non_unit,
    invert_unit,
    lambda_of,
)
from .rsa import (
    keygen,
    read_private_key,
    read_public_key,
    write_private_key,
    write_public_key,
)


def _parse_ints(text: str, what: str = "vector", sep=None) -> list[int]:
    try:
        return [int(tok) for tok in text.split(sep) if tok]
    except ValueError:
        raise HalidonError(
            f"{what} must be {'comma' if sep else 'space'}-separated "
            f"decimals, got {text!r}"
        ) from None


def _emit(text: str, args) -> None:
    """Send a result to -o FILE (verbatim) or stdout."""
    out = getattr(args, "output", None)
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _emit_line(line: str, args) -> None:
    _emit(line + "\n", args)


def _take_seed(args) -> int:
    """Explicit --seed, or fresh entropy echoed to stderr."""
    if args.seed is not None:
        return args.seed
    if getattr(args, "deterministic", False):
        raise HalidonError("--seed is required when --deterministic is set")
    import secrets  # here, not at the top: it loads hashlib and hmac

    seed = secrets.randbits(32)
    print(f"seed={seed}", file=sys.stderr)
    return seed


def _ring_from_args(args) -> HalidonRing:
    return HalidonRing.create(args.n, args.m, args.omega)


def _read_message(path: str) -> str:
    return read_text(path).rstrip("\n")


def _cmd_analyze(args) -> int:
    f = factorize(args.n)
    psi = halidon_function_psi(f)
    lines = [
        f"n = {args.n} = {f}",
        f"phi(n) = {euler_phi(f)}",
        f"psi(n) = {psi}",
    ]
    if psi == 1:
        lines.append(
            f"Z({args.n}) is a trivial halidon ring (index m = 1, w = 1)"
        )
    else:
        count, row = root_row(f, psi)
        least = row.partition(" ")[0]  # the row starts at the least root
        lines.append(
            f"Z({args.n}) is a halidon ring with index m = {psi} and w = {least}"
        )
        lines.append(f"primitive {psi}th roots of unity ({count}): {row}")
    _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_find_omega(args) -> int:
    if args.count is not None and args.count < 1:
        raise HalidonError(f"--count must be at least 1, got {args.count}")
    f = factorize(args.n)
    if args.random:
        rng = random.Random(_take_seed(args))
        root = find_primitive_root(f, args.m, rng)
        _emit_line(str(root.value), args)
    elif args.all or args.count is not None:
        require_index(f, args.m)
        _emit_line(root_row(f, args.m, args.count)[1], args)
    else:
        _emit_line(str(find_primitive_root(f, args.m).value), args)
    return 0


def _cmd_keygen(args) -> int:
    primes = _parse_ints(args.primes, "--primes", ",")
    exps = _parse_ints(args.exps, "--exps", ",")
    pub, priv = keygen(primes, exps, e=args.pub_exp, m=args.m)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    pub_path = out_dir / "public.key"
    priv_path = out_dir / "private.key"
    write_public_key(pub, pub_path)
    write_private_key(priv, priv_path)
    print(f"n={pub.n}")
    print(f"phi={priv.phi}")
    print(f"e={pub.e}")
    print(f"d={priv.d}")
    print(f"m={pub.m}")
    print(f"public={pub_path}")
    print(f"private={priv_path}")
    return 0


def _cmd_choose_omega(args) -> int:
    if args.attempts < 1:
        raise HalidonError(f"--attempts must be at least 1, got {args.attempts}")
    pub = read_public_key(args.pub)
    omega, c = protocol.choose_omega(
        pub, seed=_take_seed(args), attempts=args.attempts
    )
    _emit(f"omega={omega.value}\nc={c}\n", args)
    return 0


def _cmd_recover_omega(args) -> int:
    priv = read_private_key(args.priv)
    omega = protocol.recover_omega(priv, args.c)
    _emit_line(f"omega={omega.value}", args)
    return 0


def _cmd_transform(args) -> int:
    result = args.transform(_ring_from_args(args), _parse_ints(args.vec))
    _emit_line(decimal_row(result.entries), args)
    return 0


def _cmd_conv(args) -> int:
    a = _parse_ints(args.vec_a)
    b = _parse_ints(args.vec_b)
    if len(a) != args.m or len(b) != args.m:
        raise HalidonError(
            f"vectors must have length m = {args.m}, got {len(a)} and {len(b)}"
        )
    _emit_line(decimal_row(cyclic_convolve(a, b, args.n)), args)
    return 0


def _cmd_gr(args) -> int:
    ring = _ring_from_args(args)
    vec = _parse_ints(args.vec)
    if args.action == "encode":
        line = decimal_row(coeffs_of_lambda(vec, ring).coeffs)
    elif args.action == "decode":
        line = decimal_row(lambda_of(GroupRingElement(vec, ring)).values)
    elif args.action == "invert":
        line = decimal_row(invert_unit(GroupRingElement(vec, ring)).coeffs)
    else:  # check
        bad = first_non_unit(lambda_of(GroupRingElement(vec, ring)))
        line = "unit"
        if bad is not None:
            r, value, g = bad
            line = f"not a unit: lambda[{r}] = {value} shares factor {g} with {ring.n}"
    _emit_line(line, args)
    return 0


def _cmd_hgr_table(args) -> int:
    pub = read_public_key(args.pub)
    table = gen_unit_table(pub.n, _take_seed(args))
    _emit(render_table(table), args)
    return 0


def _cmd_encrypt(args) -> int:
    pub = read_public_key(args.pub)
    tables = [read_table(args.table)] if getattr(args, "table", None) else []
    text = _read_message(args.infile)
    ct = args.session(pub, args.omega, *tables, text)
    _emit(protocol.render_ciphertext(ct), args)
    return 0


def _cmd_decrypt(args) -> int:
    priv = read_private_key(args.priv)
    tables = [read_table(args.table)] if getattr(args, "table", None) else []
    ct = protocol.read_ciphertext(args.infile)
    text = args.session(priv, *tables, ct, keep_padding=args.keep_padding)
    _emit_line(text, args)
    return 0


def _add_ring_flags(sub) -> None:
    sub.add_argument("--n", type=int, required=True, help="modulus")
    sub.add_argument("--m", type=int, required=True, help="index / length")
    sub.add_argument(
        "--omega", type=int, required=True, help="primitive m-th root of unity"
    )


def _add_output_flag(sub) -> None:
    sub.add_argument("-o", "--output", help="write the result to this file")


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halidon",
        description="Halidon rings over Z_n: root-of-unity analysis, "
        "number-theoretic DFT, group-ring units, and the RSA-DFT / "
        "RSA-HGR cryptosystems.",
        epilog="HALIDON_FACTOR_BUDGET limits factoring work (rho iterations).",
    )
    parser.add_argument(
        "--deterministic",
        action="store_true",
        help="refuse randomized operations without an explicit --seed",
    )
    subs = parser.add_subparsers(dest="command")

    sub = subs.add_parser("analyze", help="psi(n) and the maximal-index roots")
    sub.add_argument("n", type=int)
    _add_output_flag(sub)
    sub.set_defaults(handler=_cmd_analyze)

    sub = subs.add_parser("find-omega", help="primitive m-th roots in Z_n")
    sub.add_argument("n", type=int)
    sub.add_argument("m", type=int)
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="list every root")
    group.add_argument("--count", type=int, help="list the first K roots")
    group.add_argument(
        "--random", action="store_true", help="draw one root uniformly"
    )
    sub.add_argument("--seed", type=int)
    _add_output_flag(sub)
    sub.set_defaults(handler=_cmd_find_omega)

    sub = subs.add_parser("keygen", help="write a key pair to a directory")
    sub.add_argument("--primes", required=True, help="comma-separated odd primes")
    sub.add_argument("--exps", required=True, help="comma-separated exponents")
    sub.add_argument("--pub-exp", type=int, help="public exponent e")
    sub.add_argument("--m", type=int, help="block length (default psi(n))")
    sub.add_argument("-o", "--output", required=True, help="output directory")
    sub.set_defaults(handler=_cmd_keygen)

    sub = subs.add_parser("choose-omega", help="pick and RSA-encrypt a secret root")
    sub.add_argument("--pub", required=True, help="public key file")
    sub.add_argument("--seed", type=int)
    sub.add_argument(
        "--attempts",
        type=int,
        default=protocol.DEFAULT_OMEGA_ATTEMPTS,
        help="sampling budget before giving up",
    )
    _add_output_flag(sub)
    sub.set_defaults(handler=_cmd_choose_omega)

    sub = subs.add_parser("recover-omega", help="decrypt and validate a root")
    sub.add_argument("--priv", required=True, help="private key file")
    sub.add_argument("--c", type=int, required=True, help="transported value")
    _add_output_flag(sub)
    sub.set_defaults(handler=_cmd_recover_omega)

    for name, about, transform in (
        ("dft", "forward transform of a vector", dft_forward),
        ("idft", "inverse transform of a spectrum", dft_inverse),
    ):
        sub = subs.add_parser(name, help=about)
        _add_ring_flags(sub)
        sub.add_argument("--vec", required=True)
        _add_output_flag(sub)
        sub.set_defaults(handler=_cmd_transform, transform=transform)

    sub = subs.add_parser("conv", help="cyclic convolution of two vectors")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--vec-a", required=True)
    sub.add_argument("--vec-b", required=True)
    _add_output_flag(sub)
    sub.set_defaults(handler=_cmd_conv)

    sub = subs.add_parser("gr", help="group-ring spectra, inverses, unit checks")
    sub.add_argument(
        "action", choices=("encode", "decode", "invert", "check"),
        help="encode: spectrum -> coefficients; decode: coefficients -> "
        "spectrum; invert: coefficients of the inverse; check: unit test",
    )
    _add_ring_flags(sub)
    sub.add_argument("--vec", required=True)
    _add_output_flag(sub)
    sub.set_defaults(handler=_cmd_gr)

    sub = subs.add_parser("hgr-table", help="generate a symbol-to-unit table")
    sub.add_argument("--pub", required=True, help="public key file")
    sub.add_argument("--seed", type=int)
    _add_output_flag(sub)
    sub.set_defaults(handler=_cmd_hgr_table)

    for scheme in ("dft", "hgr"):
        name = f"RSA-{scheme.upper()}"
        for op, key, infile, about, handler in (
            ("encrypt", "--pub", "message", "encrypt a message file ({})",
             _cmd_encrypt),
            ("decrypt", "--priv", "ciphertext", "decrypt an {} ciphertext",
             _cmd_decrypt),
        ):
            sub = subs.add_parser(f"{scheme}-{op}", help=about.format(name))
            sub.add_argument(key, required=True)
            if op == "encrypt":
                sub.add_argument("--omega", type=int, required=True)
            if scheme == "hgr":
                sub.add_argument("--table", required=True, help="unit table file")
            sub.add_argument(
                "--in", dest="infile", required=True, help=f"{infile} file"
            )
            if op == "decrypt":
                sub.add_argument("--keep-padding", action="store_true")
            _add_output_flag(sub)
            session = getattr(protocol, f"{scheme}_{op}_message")
            sub.set_defaults(handler=handler, session=session)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except HalidonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
