"""Deterministic command-line front end.

One flag table, ``_FLAGS``, serves every command: the one positional
names the command (a key of ``_HANDLERS``) and all commands share the
table's flags, each ignoring the flags it does not read.  ``run`` reads
argv in one pass over the table (``_scan``) when it has the plain form
``command -i FILE [--flag value ...]``.  Anything else (``-h``, an
abbreviation, ``--flag=value``, a value that starts with ``-``, a usage
error) goes to the argparse parser that ``build_parser`` makes from the
same table, so help and usage errors are argparse's own.  A file larger
than ``FILE_BYTES_BOUND`` bytes is refused before it is decoded.

Every command prints a machine-readable block of ``key: value`` lines
followed by ``#`` certificate lines, and nothing else; identical inputs
(and seed) give byte-identical stdout.  Exit codes: 0 success/pass, 1 a
checked property failed (a witness is printed), 2 input error
(argparse's own usage errors exit 2 as well), 3 an internal error: an
exception that is no ``MatroidError`` is a fault of matroidkit, not a
verdict, and is reported as ``error: internal: <Type>: <message>``.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from typing import NamedTuple

from . import __version__
from .bases import greedy_base, anchor_classes
from .closure import closure
from .coloring import (
    chromatic_number,
    color_from_base,
    is_proper,
    list_chromatic_number,
)
from .compactness import BUILTIN_FAMILIES, _search_chain, chain_from_matroids
from .contraction import contract
from .core import (
    Matroid,
    MatroidError,
    _refuse_ground_set_scan,
    _subset_literals,
    _subsets_by_size,
    circuits,
    set_literal,
    validate_axioms,
)
from .files import (
    parse_chain_text,
    parse_listing_text,
    parse_matroid_text,
    parse_subset_literal,
)
from .lemmas import run_lemma_battery

class _Out:
    def __init__(self):
        self.lines: list[str] = []

    def kv(self, key, value):
        self.lines.append(f"{key}: {value}")

    def note(self, text):
        self.lines.append(f"# {text}")

    def dump(self):
        sys.stdout.write("\n".join(self.lines) + "\n")


# A 16-element table file is about 1.8 MB, and a chain file holds at most
# 17 such levels (depth <= 16): the bound is about twice that chain.
FILE_BYTES_BOUND = 1 << 26
_READ_CHUNK = 1 << 16


def _read_text(path: str) -> str:
    """The UTF-8 text of a file; an unreadable file is an input error.

    The file is read as bytes and decoded once, with no text wrapper: a
    CR or CRLF is left in the text, where the parsers' ``str.splitlines``
    ends a line at it.  A file above FILE_BYTES_BOUND is refused before
    it is decoded: a regular file by its size, before any read, and any
    other file (a pipe, a device) once its chunks pass the bound.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            st = os.fstat(fh.fileno())
            if stat.S_ISREG(st.st_mode):
                if st.st_size > FILE_BYTES_BOUND:
                    raise _too_large(path)
                data = fh.read()
            else:
                data = bytearray()
                while chunk := fh.read(_READ_CHUNK):
                    data += chunk
                    if len(data) > FILE_BYTES_BOUND:
                        raise _too_large(path)
            return data.decode("utf-8")
    except OSError as e:
        raise MatroidError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise MatroidError(f"cannot read {path}: not UTF-8 ({e.reason} at byte {e.start})") from None


def _too_large(path: str) -> MatroidError:
    return MatroidError(f"cannot read {path}: larger than {FILE_BYTES_BOUND} bytes")


def _load_matroid(args) -> Matroid:
    if not args.input:
        raise MatroidError("this command needs a matroid file (-i FILE)")
    return parse_matroid_text(_read_text(args.input))


def _load_lists(args, n: int):
    if not args.lists:
        raise MatroidError("this command needs a listing file (--lists FILE)")
    return parse_listing_text(_read_text(args.lists), n=n)


def _parse_order(text: str | None, n: int):
    """The --order permutation, or None (the identity) when it is not given."""
    if not text:
        return None
    _refuse_ground_set_scan(n)
    try:
        order = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise MatroidError(f"order must be comma-separated ids, got {text!r}") from None
    if sorted(order) != list(range(n)):
        raise MatroidError(f"order must be a permutation of 0..{n-1}")
    return order


def _header(out: _Out, args):
    out.kv("tool", f"matroidkit {__version__}")
    out.kv("command", args.command)
    out.kv("seed", args.seed)
    if args.input:
        out.kv("input", args.input)


def cmd_validate(args, out: _Out) -> int:
    m = _load_matroid(args)
    out.kv("matroid", m.name)
    out.kv("n", m.n)
    report = validate_axioms(m)
    out.kv("axioms", "pass" if report.ok else "fail")
    if report.ok:
        out.note(f"exhaustive check over all {1 << m.n} subsets and element pairs")
        return 0
    out.kv("axiom", report.axiom)
    out.kv("witness", " ".join(set_literal(w) for w in report.witness))
    out.note(report.describe())
    return 1


def cmd_circuits(args, out: _Out) -> int:
    m = _load_matroid(args)
    out.kv("matroid", m.name)
    out.kv("n", m.n)
    circs = circuits(m, max_n=args.max_n)
    out.kv("circuit-count", len(circs))
    for c in circs:
        out.kv("circuit", set_literal(c.members))
    out.note("each circuit is dependent and every proper subset is independent")
    out.note("ordered by size, then lexicographically")
    return 0


def cmd_closure(args, out: _Out) -> int:
    m = _load_matroid(args)
    subset = _subset_arg(args, m)
    out.kv("matroid", m.name)
    out.kv("subset", set_literal(subset))
    out.kv("rank", m.rank(subset))
    cl = closure(m, subset)
    out.kv("closure", set_literal(cl))
    out.note("closure adds every element that leaves the rank unchanged")
    return 0


def cmd_closed(args, out: _Out) -> int:
    m = _load_matroid(args)
    subset = _subset_arg(args, m)
    out.kv("matroid", m.name)
    out.kv("subset", set_literal(subset))
    # closed iff the closure adds nothing; the first element it adds is the witness
    added = [x for x in closure(m, subset) if x not in subset]
    out.kv("closed", "false" if added else "true")
    if added:
        out.note(f"adding element {added[0]} keeps the rank at {m.rank(subset)}")
    else:
        out.note("every outside element raises the rank")
    return 0


def cmd_contract(args, out: _Out) -> int:
    m = _load_matroid(args)
    if args.contract is None:
        raise MatroidError("contract needs --contract SET")
    z = parse_subset_literal(args.contract)
    mc = contract(m, z)
    out.kv("matroid", m.name)
    out.kv("contract", set_literal(z))
    out.kv("n", mc.n)
    out.kv(
        "element-map",
        " ".join(f"{new}:{old}" for new, old in enumerate(mc.element_map or ())) or "-",
    )
    table = mc.mask_table()
    literals = _subset_literals(mc.n)
    for a in _subsets_by_size((1 << mc.n) - 1):
        out.kv(f"rank {literals[a]}", table[a])
    out.note("contracted rank: r'(A) = r(A u Z) - r(Z), elements re-indexed densely")
    out.note("element-map lists new:original ids")
    return 0


def cmd_base(args, out: _Out) -> int:
    m = _load_matroid(args)
    order = _parse_order(args.order, m.n)
    ob = greedy_base(m, order)
    out.kv("matroid", m.name)
    out.kv("order", ",".join(str(x) for x in (order or range(m.n))))
    out.kv("base", "(" + ",".join(str(x) for x in ob.elements) + ")")
    out.kv("base-size", len(ob))
    out.note("greedy scan; an element enters iff it raises the running rank")
    return 0


def cmd_mb(args, out: _Out) -> int:
    m = _load_matroid(args)
    order = _parse_order(args.order, m.n)
    ob = greedy_base(m, order)
    decomp = anchor_classes(m, ob)
    out.kv("matroid", m.name)
    out.kv("order", ",".join(str(x) for x in (order or range(m.n))))
    out.kv("base", "(" + ",".join(str(x) for x in ob.elements) + ")")
    for x in range(m.n):
        out.kv("anchor", f"{x} -> {decomp.mapping[x]}")
    for b in ob:
        out.kv("class", f"{b} {set_literal(decomp.classes[b])}")
    out.kv("max-class-size", decomp.max_class_size)
    out.note("each element maps to the top base element of its fundamental circuit")
    out.note("max class size is an upper-bound certificate for list sizes, not tight")
    return 0


def cmd_chromatic(args, out: _Out) -> int:
    m = _load_matroid(args)
    out.kv("matroid", m.name)
    result = chromatic_number(m, max_n=args.max_n)
    out.kv("chromatic", result.value)
    for x in sorted(result.coloring):
        out.kv("color", f"{x} {result.coloring[x]}")
    out.note("witness partition verified independent classwise")
    out.note(f"search exhausted every candidate below {result.value}")
    return 0


def cmd_list_chromatic(args, out: _Out) -> int:
    m = _load_matroid(args)
    out.kv("matroid", m.name)
    out.kv("kmax", args.kmax)
    result = list_chromatic_number(m, kmax=args.kmax, max_n=args.max_n)
    if result.value is not None:
        out.kv("list-chromatic", result.value)
    else:
        out.kv("list-chromatic", f">= {result.lower_bound}")
    for k in sorted(result.bad_listings):
        listing = result.bad_listings[k]
        rendered = " ".join(
            f"{x}:{{{','.join('c' + str(c) for c in listing[x])}}}"
            for x in sorted(listing)
        )
        out.kv(f"bad-listing k={k}", rendered)
    out.note("every k-listing below the answer has an uncolorable witness")
    out.note("upper bound by counting: lists of size chi meet Rado's condition, as r(S) >= |S|/chi")
    return 0


def cmd_color_from_base(args, out: _Out) -> int:
    m = _load_matroid(args)
    order = _parse_order(args.order, m.n)
    ob = greedy_base(m, order)
    lists = _load_lists(args, m.n)
    phi = color_from_base(m, ob, lists)
    out.kv("matroid", m.name)
    out.kv("base", "(" + ",".join(str(x) for x in ob.elements) + ")")
    out.kv("max-class-size", anchor_classes(m, ob).max_class_size)
    for x in sorted(phi):
        out.kv("color", f"{x} {phi[x]}")
    out.kv("proper", "true" if is_proper(m, phi) else "false")
    out.note("colors chosen injectively inside each anchor class")
    return 0


def cmd_check_lemmas(args, out: _Out) -> int:
    m = _load_matroid(args)
    out.kv("matroid", m.name)
    out.kv("n", m.n)
    results = run_lemma_battery(m, max_n=args.max_n)
    failed = 0
    for r in results:
        if r.status == "pass":
            out.kv(r.key, "pass" + (f" ({r.detail})" if r.detail else ""))
        elif r.status == "skipped":
            out.kv(r.key, r.detail)
        else:
            failed += 1
            out.kv(r.key, f"fail [{r.detail}]")
    out.kv("lemmas-failed", failed)
    out.note("each line is an exhaustive desk-scale check of one structural fact")
    return 0 if failed == 0 else 1


def cmd_compactness(args, out: _Out) -> int:
    if not args.family:
        raise MatroidError("this command needs a chain (--family NAME or FILE)")
    if args.family in BUILTIN_FAMILIES:
        chain = BUILTIN_FAMILIES[args.family]()
    else:
        # a file of concatenated matroid blocks acts as an explicit chain
        try:
            text = _read_text(args.family)
        except MatroidError as e:
            raise MatroidError(
                f"--family must name one of {sorted(BUILTIN_FAMILIES)} or a chain file; {e}"
            ) from None
        chain = chain_from_matroids(parse_chain_text(text), name=args.family)
    depth = args.depth
    top = chain.level(depth)
    lists = _load_lists(args, top.n)
    top.mask_table()  # level 0 is not tabulated when built: refuse it before any line
    out.kv("family", chain.name)
    out.kv("depth", depth)
    out.kv("levels", ",".join(str(chain.level(i).n) for i in range(depth + 1)))
    phi, level = _search_chain(chain, lists, depth)
    out.kv("extended", "false" if phi is None else "true")
    if phi is None:
        out.kv("uncolorable-level", level)
    else:
        for x in sorted(phi):
            out.kv("color", f"{x} {phi[x]}")
        for i in range(depth + 1):
            mi = chain.level(i)
            restricted = {x: phi[x] for x in range(mi.n)}
            out.kv(f"level-{i}-proper", "true" if is_proper(mi, restricted) else "false")
    out.note("finite-depth tree search over level colorings; each level extends")
    out.note("the previous one, standing in for a single coherent global choice")
    return 1 if phi is None else 0


_HANDLERS = {
    "validate": cmd_validate,
    "circuits": cmd_circuits,
    "closure": cmd_closure,
    "closed": cmd_closed,
    "contract": cmd_contract,
    "base": cmd_base,
    "mb": cmd_mb,
    "chromatic": cmd_chromatic,
    "list-chromatic": cmd_list_chromatic,
    "color-from-base": cmd_color_from_base,
    "check-lemmas": cmd_check_lemmas,
    "compactness": cmd_compactness,
}


def _subset_arg(args, m: Matroid):
    if args.subset is None:
        raise MatroidError("this command needs --subset SET")
    subset = parse_subset_literal(args.subset)
    m._checked_mask(subset)
    return subset


class _Flag(NamedTuple):
    options: tuple[str, ...]
    dest: str
    type: type | None
    default: int | None
    help: str


# every flag of every command: build_parser and _scan both read this table
_FLAGS = (
    _Flag(("-i", "--input"), "input", None, None, "matroid file"),
    _Flag(("--subset",), "subset", None, None, "subset literal like {0,1}"),
    _Flag(("--contract",), "contract", None, None, "subset literal to contract"),
    _Flag(("--lists",), "lists", None, None, "listing file"),
    _Flag(("--order",), "order", None, None, "comma-separated permutation, e.g. 0,2,1"),
    _Flag(("--kmax",), "kmax", int, 3, "largest list size to report"),
    _Flag(("--depth",), "depth", int, 0, "chain depth"),
    _Flag(("--family",), "family", None, None, "chain family name or chain file"),
    _Flag(("--seed",), "seed", int, 0, "seed echoed into output"),
    _Flag(("--max-n",), "max_n", int, None,
          "lift the size bound of circuits, chromatic, list-chromatic "
          "and check-lemmas, up to each one's ceiling"),
)
_FLAG_OF = {option: flag for flag in _FLAGS for option in flag.options}
_DEFAULTS = {"command": None, **{flag.dest: flag.default for flag in _FLAGS}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matroidkit",
        description="matroid rank-oracle toolkit with deterministic certificates",
    )
    parser.add_argument("command", choices=_HANDLERS)
    for flag in _FLAGS:
        parser.add_argument(*flag.options, dest=flag.dest, type=flag.type,
                            default=flag.default, help=flag.help)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built on its first call; callers of
    ``build_parser`` get fresh ones, so their changes never reach it."""
    return build_parser()


def _scan(argv) -> argparse.Namespace | None:
    """argv's Namespace in one pass over ``_FLAGS``, or None when argv is
    not the plain form: str tokens, one command, and each option string
    of the table followed by a value that does not start with ``-``.

    Whatever it accepts, argparse parses to an equal Namespace; the rest
    (help, abbreviations, ``--flag=value``, ``--``, a value that starts
    with ``-``, a usage error) is left to argparse.
    """
    if type(argv) not in (list, tuple):
        return None
    values = dict(_DEFAULTS)
    i, end = 0, len(argv)
    while i < end:
        token = argv[i]
        if type(token) is not str:
            return None
        if token[:1] != "-":
            if values["command"] is not None or token not in _HANDLERS:
                return None
            values["command"] = token
            i += 1
            continue
        flag = _FLAG_OF.get(token)
        if flag is None or i + 1 == end:
            return None
        value = argv[i + 1]
        if type(value) is not str or value[:1] == "-":
            return None
        if flag.type is not None:
            try:
                value = flag.type(value)
            except ValueError:
                return None
        values[flag.dest] = value
        i += 2
    if values["command"] is None:
        return None
    return argparse.Namespace(**values)


def run(argv=None) -> int:
    args = _scan(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = _parser().parse_args(argv)
    out = _Out()
    _header(out, args)
    try:
        code = _HANDLERS[args.command](args, out)
    except MatroidError as e:
        out.dump()
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        out.dump()
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    out.dump()
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
