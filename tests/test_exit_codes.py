"""A derandomized fuzz of the command line's exit-code contract.

Mutated copies of the shipped matroid, chain and listing files, and of
table files written from the small ones, go to all 12 commands with drawn
``--max-n``, ``--depth``, ``--kmax``, ``--subset`` and ``--order``
values.  ``cli.run`` must raise nothing and return 0, 1 or 2; an exit of
2 prints exactly one line to stderr, ``error: ...``, and any other exit
prints nothing there.
"""

import io
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from matroidkit import contract, uniform
from matroidkit.cli import _HANDLERS, run
from matroidkit.files import parse_matroid_text, serialize_matroid

DATA = Path(__file__).parent / "data"
CASES = 200
SMALL = ("u24.m", "triangle.m", "gf2_line.m")
TOKENS = ("-1", "0", "1", "2", "9", "x", "{0,9}", "{1,0}", "{}", "", "99999999", "a", ":", "matroid")


def _mutate(rng: random.Random, text: str) -> str:
    """The text with one to three edits: a line dropped, doubled or swapped,
    a token replaced, or the text cut at a random character."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(5)
        if not lines:
            lines = [rng.choice(TOKENS)]
        i = rng.randrange(len(lines))
        if edit == 0:
            del lines[i]
        elif edit == 1:
            lines.insert(i, lines[i])
        elif edit == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == 3:
            tokens = lines[i].split(" ")
            tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
            lines[i] = " ".join(tokens)
        else:
            cut = "\n".join(lines)
            return cut[: rng.randrange(len(cut) + 1)]
    return "\n".join(lines) + "\n"


def _sources():
    """(name, text) of every shipped matroid and listing file, and table
    files of the small matroids and of uniform(6, 3) and uniform(9, 7)."""
    texts = {p.name: p.read_text() for p in sorted(DATA.glob("*.m"))}
    for name in SMALL:
        m = parse_matroid_text(texts[name])
        texts[name.replace(".m", "-table.m")] = serialize_matroid(contract(m, ()))
    for m, name in ((uniform(6, 3), "u63-table.m"), (uniform(9, 7), "u97-table.m")):
        texts[name] = serialize_matroid(contract(m, ()))
    listings = {p.name: p.read_text() for p in sorted((DATA / "golden").glob("*.l"))}
    return texts, listings


def _subset_literal(rng: random.Random) -> str:
    ids = sorted(rng.sample(range(10), rng.randint(0, 4)))
    if rng.random() < 0.2:
        ids.reverse()
    return "{" + ",".join(map(str, ids)) + "}"


# the element counts of each built-in family's levels 0, 1, 2, ...
LEVELS = {"growing-uniform": (3, 4, 5, 6), "growing-cycle": (3, 5, 7), "disjoint-triangles": (3, 6, 9)}


def _argv(rng: random.Random, command: str, paths: dict, listings: dict) -> list[str]:
    argv = [command]
    lists = listings[rng.choice(sorted(listings))]
    if command == "compactness":
        family = rng.choice(sorted(LEVELS) + ["no-such-family", paths[rng.choice(sorted(paths))]])
        depth = rng.choice((0, 1, 2, 3, 17))
        argv += ["--family", family, "--depth", str(depth)]
        if family in LEVELS and depth < len(LEVELS[family]):
            # mostly a listing of the top level's size, whose two colors may run short
            lists = listings.get(f"ab-{LEVELS[family][depth]}.l", lists)
    else:
        argv += ["-i", paths[rng.choice(sorted(paths))]]
    if command in ("closure", "closed") or rng.random() < 0.1:
        argv += ["--subset", _subset_literal(rng)]
    if command == "contract":
        argv += ["--contract", _subset_literal(rng)]
    if command in ("color-from-base", "compactness") or rng.random() < 0.1:
        argv += ["--lists", lists]
    if command in ("base", "mb", "color-from-base") and rng.random() < 0.5:
        argv += ["--order", ",".join(map(str, rng.sample(range(5), rng.randint(1, 5))))]
    if command == "list-chromatic":
        argv += ["--kmax", str(rng.choice((0, 1, 2, 3, 5)))]
    if rng.random() < 0.5:
        argv += ["--max-n", str(rng.choice((0, 1, 3, 4, 6, 9, 10, 40)))]
    return argv


def test_every_exit_is_0_1_or_2_with_one_error_line_on_2(tmp_path):
    rng = random.Random(31)
    texts, listing_texts = _sources()
    commands = sorted(_HANDLERS)
    codes = Counter()
    for case in range(CASES):
        paths, listings = {}, {}
        for name, text in texts.items():
            path = tmp_path / f"{case}-{name}"
            path.write_text(_mutate(rng, text) if rng.random() < 0.4 else text)
            paths[name] = str(path)
        for name, text in listing_texts.items():
            path = tmp_path / f"{case}-{name}"
            path.write_text(_mutate(rng, text) if rng.random() < 0.3 else text)
            listings[name] = str(path)
        command = commands[case % len(commands)]
        if command == "check-lemmas" and case % 2:
            # a mutated table file: most are no matroid, and are refused
            paths = {"table": paths[rng.choice(("u63-table.m", "u97-table.m", "u24-table.m"))]}
        argv = _argv(rng, command, paths, listings)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
        else:
            assert err.getvalue() == "", (argv, err.getvalue())
        codes[command, code] += 1
    # every command ran, and the fuzz reached all three exits
    assert {command for command, _ in codes} == set(commands)
    assert {code for _, code in codes} == {0, 1, 2}, codes
