"""Command-line front end.

Reads JSON algebra descriptions, runs a pipeline, writes a canonical JSON
report: keys sorted, arrays in construction order, so identical inputs and
configuration give byte-identical output. Exit codes: 0 success, 1 for
an unparseable command line or input, 2 for a law violation, 3 for a guard
breach.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Tuple

from . import jsonio
from .config import ToolConfig, load_config
from .errors import GuardBreach, MalformedTable, ToolkitError, check_count
from .grothendieck import k0_report
from .matrix import idempotent_matrices
from .mv import (MvAlgebra, _as_semiring, check_mv_axioms,
                 gamma_property_report, lukasiewicz_chain, reduct_vee_odot,
                 reduct_wedge_oplus)
from .projective import (is_projective_matrix_criterion,
                         is_projective_retract_oracle)
from .semimodule import (FiniteSemimodule, check_semimodule, hom_set,
                         minimal_generating_set)
from .semiring import FiniteSemiring, check_semiring_axioms
from .tensor import tensor_report
from .tropical import TropicalUSemifield


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise MalformedTable(f"{path} nests too deeply") from None


def _load(path: str):
    return jsonio.load_algebra(_read_json(path))


def _load_modules(args, command: str):
    """The semimodules of --left and --right; else MalformedTable."""
    modules = _load(args.left), _load(args.right)
    if not all(isinstance(m, FiniteSemimodule) for m in modules):
        raise MalformedTable(f"{command} needs two semimodule descriptions")
    return modules


def cmd_verify(args, cfg: ToolConfig) -> Tuple[dict, int]:
    obj = _load(args.input)
    if isinstance(obj, MvAlgebra):
        report = check_mv_axioms(obj).to_dict()
    elif isinstance(obj, FiniteSemiring):
        report = check_semiring_axioms(obj).to_dict()
    elif isinstance(obj, FiniteSemimodule):
        report = check_semimodule(obj.scalars, obj).to_dict()
    else:
        report = {"structure": "matrix", "valid": True, "laws": []}
    return report, 0 if report["valid"] else 2


def cmd_chain(args, cfg: ToolConfig) -> Tuple[dict, int]:
    check_count(args.k, "k", 2)
    return jsonio.mv_to_dict(lukasiewicz_chain(args.k, cfg.max_carrier)), 0


def cmd_reduct(args, cfg: ToolConfig) -> Tuple[dict, int]:
    obj = _load(args.input)
    if not isinstance(obj, MvAlgebra):
        raise MalformedTable("reduct needs an mv algebra description")
    reduct = (reduct_vee_odot if args.variant == "vee-odot"
              else reduct_wedge_oplus)(obj)
    return jsonio.semiring_to_dict(reduct), 0


def cmd_idempotents(args, cfg: ToolConfig) -> Tuple[dict, int]:
    s = _as_semiring(_load(args.input))
    matrices = idempotent_matrices(s, args.n, cfg.max_enum)
    return {
        "scalars": jsonio.semiring_to_dict(s),
        "n": args.n,
        "count": len(matrices),
        "matrices": [[list(row) for row in u.entries] for u in matrices],
    }, 0


def cmd_projective(args, cfg: ToolConfig) -> Tuple[dict, int]:
    obj = _load(args.input)
    if not isinstance(obj, FiniteSemimodule):
        raise MalformedTable("projective needs a semimodule description")
    bound = args.n
    retraction = is_projective_retract_oracle(obj, bound, cfg.max_enum,
                                              cfg.max_carrier)
    presentation = is_projective_matrix_criterion(obj, bound, cfg.max_enum,
                                                  cfg.max_carrier)
    agree = (retraction is None) == (presentation is None)
    report = {
        "projective": presentation is not None,
        "presentation": (jsonio.matrix_to_dict(presentation.u)
                         if presentation else None),
        "retraction": ({"pi": list(retraction.pi.mapping),
                        "mu": list(retraction.mu.mapping)}
                       if retraction else None),
        "witnesses": {
            "deciders_agree": agree,
            "minimal_generators": list(minimal_generating_set(obj)),
        },
    }
    return report, 0 if agree else 2


def cmd_k0(args, cfg: ToolConfig) -> Tuple[dict, int]:
    obj = _load(args.input)
    if not isinstance(obj, (MvAlgebra, FiniteSemiring)):
        raise MalformedTable("k0 needs a semiring or mv algebra description")
    n_max = args.nmax if args.nmax is not None else cfg.n_max
    return k0_report(obj, n_max, cfg.max_enum, cfg.max_carrier), 0


def cmd_tensor(args, cfg: ToolConfig) -> Tuple[dict, int]:
    left, right = _load_modules(args, "tensor")
    report = tensor_report(left, right, cfg.max_enum, cfg.max_carrier)
    return report, 0 if report["universal_property"] == "verified" else 2


# CPython's default cap on the digits of an int printed as text
_MAX_U_DIGITS = 4300
_U_LITERAL = re.compile(r"\s*[-+]?([\d_]*)(?:\s*/\s*([\d_]*)"
                        r"|(?:\.([\d_]*))?(?:[eE]([-+]?\d[\d_]*))?)\s*")


def _parse_unit(text: str) -> Fraction:
    """--u as a Fraction. A literal whose numerator or denominator, as
    written, has more digits than a report could print is refused before
    Fraction raises 10 to its exponent; past 9 digits, any exponent is."""
    m = _U_LITERAL.fullmatch(text)
    if m:
        num, den, dec, exp = (g.replace("_", "") for g in m.groups(""))
        big = len(exp.lstrip("+-0")) > 9
        shift = (10 ** 10 if big else int(exp or 0)) - len(dec)
        if max(len(num + dec) + max(shift, 0), len(den),
               1 - shift) > _MAX_U_DIGITS:
            raise MalformedTable(f"--u has a numerator or denominator of "
                                 f"more than {_MAX_U_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedTable(f"cannot parse --u {text!r}: {exc}")


def cmd_gamma(args, cfg: ToolConfig) -> Tuple[dict, int]:
    u = _parse_unit(args.u)
    samples = args.samples if args.samples is not None else 10000
    seed = args.seed if args.seed is not None else cfg.seed
    report = gamma_property_report(TropicalUSemifield(u), samples, seed,
                                   cfg.max_enum)
    return report, 0 if report["ok"] else 2


def cmd_homset(args, cfg: ToolConfig) -> Tuple[dict, int]:
    left, right = _load_modules(args, "homset")
    homs = hom_set(left, right, cfg.max_enum)
    return {"count": len(homs),
            "homs": homs.rows.tolist()}, 0


class _Parser(argparse.ArgumentParser):
    """Raises where argparse would exit with status 2, which the exit-code
    contract keeps for law violations."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-carrier", type=int, default=None)
    common.add_argument("--max-enum", type=int, default=None)
    common.add_argument("--out", default=None, help="write the report here "
                        "instead of stdout")

    parser = _Parser(
        prog="mvsr",
        description="finite semiring, semimodule and mv-algebra toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="check the axioms of a JSON algebra")
    p.set_defaults(handler=cmd_verify)
    p.add_argument("--input", required=True)

    p = sub.add_parser("chain", parents=[common],
                       help="emit the k-element standard chain")
    p.set_defaults(handler=cmd_chain)
    p.add_argument("k", type=int)

    p = sub.add_parser("reduct", parents=[common],
                       help="emit a semiring reduct of an mv algebra")
    p.set_defaults(handler=cmd_reduct)
    p.add_argument("variant", choices=("vee-odot", "wedge-oplus"))
    p.add_argument("--input", required=True)

    p = sub.add_parser("idempotents", parents=[common],
                       help="multiplicatively idempotent n-by-n matrices")
    p.set_defaults(handler=cmd_idempotents)
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, default=2)

    p = sub.add_parser("projective", parents=[common],
                       help="decide projectivity both ways")
    p.set_defaults(handler=cmd_projective)
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("k0", parents=[common],
                       help="truncated projective-class group report")
    p.set_defaults(handler=cmd_k0)
    p.add_argument("--input", required=True)
    p.add_argument("--nmax", type=int, default=None)

    p = sub.add_parser("tensor", parents=[common],
                       help="tensor product report")
    p.set_defaults(handler=cmd_tensor)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("gamma", parents=[common],
                       help="truncation-map certificate: both laws decided "
                       "on a grid (grid_failures), then spot-checked on "
                       "--samples seeded draws")
    p.set_defaults(handler=cmd_gamma)
    p.add_argument("--u", default="1")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("homset", parents=[common],
                       help="all homomorphisms between two modules")
    p.set_defaults(handler=cmd_homset)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"mvsr: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = load_config(os.environ.get("MVSR_CONFIG"))
    except (OSError, ValueError) as exc:
        print(f"mvsr: cannot read config: {exc}", file=sys.stderr)
        return 1
    cfg = cfg.with_overrides(max_carrier=args.max_carrier,
                             max_enum=args.max_enum, out=args.out)
    try:
        report, code = args.handler(args, cfg)
    except json.JSONDecodeError as exc:
        print(f"mvsr: parse error at line {exc.lineno}, column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return 1
    except MalformedTable as exc:
        print(f"mvsr: malformed input: {exc}", file=sys.stderr)
        return 1
    except GuardBreach as exc:
        print(f"mvsr: guard breach: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(f"mvsr: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"mvsr: {exc}", file=sys.stderr)
        return 1
    text = jsonio.canonical_dumps(report)
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"mvsr: cannot write {cfg.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
