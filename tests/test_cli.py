import io
import os
import random
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from matroidkit import __version__, cli, list_chromatic_number
from matroidkit.cli import build_parser, run

DATA = Path(__file__).parent / "data"
U24 = str(DATA / "u24.m")
TRIANGLE = str(DATA / "triangle.m")
GF2 = str(DATA / "gf2_line.m")
U2M = "matroid uniform\nn 2000000\nk 3\n"


def invoke(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def kv(output):
    out = {}
    for line in output.splitlines():
        if line.startswith("#") or ": " not in line:
            continue
        k, v = line.split(": ", 1)
        out.setdefault(k, []).append(v)
    return out


def test_circuits_command():
    code, out = invoke(["circuits", "-i", U24])
    assert code == 0
    vals = kv(out)
    assert vals["circuit-count"] == ["4"]
    assert vals["circuit"] == ["{0,1,2}", "{0,1,3}", "{0,2,3}", "{1,2,3}"]


def test_validate_command():
    code, out = invoke(["validate", "-i", TRIANGLE])
    assert code == 0
    assert kv(out)["axioms"] == ["pass"]


def test_closed_and_closure_commands():
    code, out = invoke(["closed", "-i", U24, "--subset", "{0,1}"])
    assert code == 0 and kv(out)["closed"] == ["false"]
    code, out = invoke(["closure", "-i", U24, "--subset", "{0,1}"])
    assert code == 0 and kv(out)["closure"] == ["{0,1,2,3}"]


def test_chromatic_command():
    code, out = invoke(["chromatic", "-i", U24])
    assert code == 0
    assert kv(out)["chromatic"] == ["2"]


def test_list_chromatic_command():
    code, out = invoke(["list-chromatic", "-i", U24, "--kmax", "3"])
    assert code == 0
    vals = kv(out)
    assert vals["list-chromatic"] == ["2"]
    assert "bad-listing k=1" in vals


def test_contract_command():
    code, out = invoke(["contract", "-i", U24, "--contract", "{0}"])
    assert code == 0
    vals = kv(out)
    assert vals["n"] == ["3"]
    assert vals["element-map"] == ["0:1 1:2 2:3"]
    assert vals["rank {0,1,2}"] == ["1"]


def test_base_and_mb_commands():
    code, out = invoke(["base", "-i", U24, "--order", "2,3,0,1"])
    assert code == 0 and kv(out)["base"] == ["(2,3)"]
    code, out = invoke(["mb", "-i", U24])
    vals = kv(out)
    assert code == 0
    assert vals["max-class-size"] == ["3"]
    assert vals["class"] == ["0 {0}", "1 {1,2,3}"]


def test_color_from_base_command(tmp_path):
    lists = tmp_path / "lists.l"
    lists.write_text("".join(f"list {x} : p q r\n" for x in range(4)))
    code, out = invoke(["color-from-base", "-i", U24, "--lists", str(lists)])
    assert code == 0
    assert kv(out)["proper"] == ["true"]


def test_check_lemmas_command():
    code, out = invoke(["check-lemmas", "-i", TRIANGLE])
    assert code == 0
    vals = kv(out)
    assert vals["lemmas-failed"] == ["0"]
    assert vals["L8"] == ["pass"]


def test_check_lemmas_skips_above_max_n(tmp_path):
    big = tmp_path / "big.m"
    big.write_text("matroid uniform\nn 9\nk 9\n")
    code, out = invoke(["check-lemmas", "-i", str(big)])
    assert code == 0
    assert "skipped (size 9 > 8)" in out
    code, out = invoke(["check-lemmas", "-i", str(big), "--max-n", "9"])
    assert code == 0
    assert "skipped" not in out


def test_check_lemmas_max_n_cannot_pass_the_ceiling(tmp_path):
    big = tmp_path / "u20.m"
    big.write_text("matroid uniform\nn 20\nk 3\n")
    code, out = invoke(["check-lemmas", "-i", str(big), "--max-n", "40"])
    assert code == 0
    checks = {k: v for k, v in kv(out).items() if k.startswith("L")}
    assert len(checks) == 20
    assert all(v == ["skipped (size 20 > 10)"] for v in checks.values())


def test_compactness_command(tmp_path):
    lists = tmp_path / "lists.l"
    lists.write_text("".join(f"list {x} : a b\n" for x in range(9)))
    code, out = invoke(
        ["compactness", "--family", "disjoint-triangles", "--depth", "2", "--lists", str(lists)]
    )
    assert code == 0
    vals = kv(out)
    assert vals["extended"] == ["true"]
    assert vals["level-2-proper"] == ["true"]


def test_compactness_uncolorable_level(tmp_path):
    lists = tmp_path / "lists.l"
    body = "".join(f"list {x} : a b\n" for x in range(6))
    body += "".join(f"list {x} : a\n" for x in (6, 7, 8))
    lists.write_text(body)
    code, out = invoke(
        ["compactness", "--family", "disjoint-triangles", "--depth", "2", "--lists", str(lists)]
    )
    assert code == 1
    assert kv(out)["uncolorable-level"] == ["2"]


def test_compactness_chain_file(tmp_path):
    chain = tmp_path / "chain.m"
    chain.write_text(
        "matroid uniform\nn 3\nk 2\nmatroid uniform\nn 4\nk 2\n"
    )
    lists = tmp_path / "lists.l"
    lists.write_text("".join(f"list {x} : a b c\n" for x in range(4)))
    code, out = invoke(
        ["compactness", "--family", str(chain), "--depth", "1", "--lists", str(lists)]
    )
    assert code == 0
    assert kv(out)["extended"] == ["true"]


def test_compactness_chain_file_with_comments(tmp_path, capsys):
    # a block opens only at a line whose first token is "matroid", so
    # comments that mention matroids are skipped like any other comment
    chain = tmp_path / "chain.m"
    chain.write_text(
        "# first matroid of the chain\n\n"
        "matroid uniform\nn 3\nk 2\n"
        "# the next matroid extends it\n"
        "matroid uniform\nn 4\nk 2\n"
    )
    lists = tmp_path / "lists.l"
    lists.write_text("".join(f"list {x} : a b c\n" for x in range(4)))
    argv = ["compactness", "--family", str(chain), "--depth", "1", "--lists", str(lists)]
    code, out = invoke(argv)
    assert code == 0
    assert kv(out)["levels"] == ["3,4"] and kv(out)["extended"] == ["true"]
    capsys.readouterr()
    chain.write_text("# comment\nn 3\nmatroid uniform\nn 3\nk 2\n")
    code, _ = invoke(argv)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: line 2: chain file must open with 'matroid <kind>', got 'n 3'"]


def test_chain_file_parse_error_names_the_file_line(tmp_path, capsys):
    # the bad line is the second line of the second block, line 5 of the file
    chain = tmp_path / "chain.m"
    chain.write_text("matroid uniform\nn 3\nk 2\nmatroid uniform\nn four\nk 2\n")
    lists = tmp_path / "lists.l"
    lists.write_text("".join(f"list {x} : a b c\n" for x in range(4)))
    code, _ = invoke(
        ["compactness", "--family", str(chain), "--depth", "1", "--lists", str(lists)]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: line 5: n must be an integer, got 'four'"]
    # a missing line names its block's opening line, here line 5
    chain.write_text("matroid uniform\nn 3\nk 2\n# next level\nmatroid uniform\nn 4\n")
    code, _ = invoke(
        ["compactness", "--family", str(chain), "--depth", "1", "--lists", str(lists)]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: line 5: uniform matroid needs both 'n' and 'k' lines"]


def test_chain_file_blocks_above_depth_are_not_parsed(tmp_path, capsys):
    # block 1 is malformed: no error at depth 0, which never builds level 1
    chain = tmp_path / "chain.m"
    chain.write_text("matroid uniform\nn 3\nk 2\nmatroid uniform\nn four\nk 2\n")
    lists = tmp_path / "lists.l"
    lists.write_text("".join(f"list {x} : a b c\n" for x in range(3)))
    argv = ["compactness", "--family", str(chain), "--lists", str(lists), "--depth"]
    code, out = invoke(argv + ["0"])
    assert code == 0
    assert kv(out)["levels"] == ["3"] and kv(out)["extended"] == ["true"]
    capsys.readouterr()
    code, _ = invoke(argv + ["1"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == ["error: line 5: n must be an integer, got 'four'"]


def test_chain_file_parses_one_block_per_level_built(tmp_path, capsys, monkeypatch):
    # four copies of one 16-element table block: --depth 0 parses only the
    # first, and an absurd depth is refused before any block is parsed
    from matroidkit import contract, uniform
    from matroidkit.files import serialize_matroid

    chain = tmp_path / "u16x4.m"
    chain.write_text(serialize_matroid(contract(uniform(16, 8), ())) * 4)
    lists = tmp_path / "lists.l"
    lists.write_text("".join(f"list {x} : a b\n" for x in range(16)))
    parsed = []

    def counted(lines):
        parsed.append(lines[0])
        return real(lines)

    real = cli._parse_block
    monkeypatch.setattr(cli, "_parse_block", counted)
    argv = ["compactness", "--family", str(chain), "--lists", str(lists), "--depth"]
    code, out = invoke(argv + ["0"])
    assert code == 0
    assert kv(out)["levels"] == ["16"] and kv(out)["extended"] == ["true"]
    assert parsed == [(1, "matroid table")]
    code, _ = invoke(argv + ["3000"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == ["error: chain levels need depth <= 16, got 3000"]
    assert len(parsed) == 1


def test_exit_code_2_on_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.m"
    bad.write_text("matroid table\nn 1\nrank {} 1\nrank {0} 1\n")
    code, _ = invoke(["validate", "-i", str(bad)])
    assert code == 2
    code, _ = invoke(["closed", "-i", U24, "--subset", "{1,0}"])
    assert code == 2
    code, _ = invoke(["chromatic", "-i", U24, "--subset", "{9}"])  # stray flag is fine
    assert code == 0
    code, _ = invoke(["closure", "-i", U24])  # missing --subset
    assert code == 2


@pytest.mark.parametrize("extra", [[], ["--lists", "lists.l", "--depth", "1"]], ids=["bare", "lists"])
def test_compactness_without_a_family_exits_2_before_reading(monkeypatch, capsys, extra):
    def no_read(path):
        raise AssertionError(f"read {path!r}")

    monkeypatch.setattr(cli, "_read_text", no_read)
    code, out = invoke(["compactness", *extra])
    assert code == 2
    assert capsys.readouterr().err == "error: this command needs a chain (--family NAME or FILE)\n"
    assert out == "tool: matroidkit %s\ncommand: compactness\nseed: 0\n" % __version__


def test_an_internal_error_exits_3_after_the_stdout_so_far(monkeypatch, capsys):
    # an exception that is no MatroidError is a crash, not a verdict: not
    # exit 1 ("a checked property failed"), nor exit 2 (an input error)
    def crash(args, out):
        out.kv("partial", "yes")
        return 1 // 0

    monkeypatch.setitem(cli._HANDLERS, "validate", crash)
    code, out = invoke(["validate", "-i", U24])
    assert code == 3
    assert capsys.readouterr().err == "error: internal: ZeroDivisionError: integer division or modulo by zero\n"
    assert out == f"tool: matroidkit {__version__}\ncommand: validate\nseed: 0\ninput: {U24}\npartial: yes\n"


def test_parser_errors_exit_2_and_help_exits_0(capsys):
    for argv in (
        [],
        ["nosuch"],
        ["validate", "--bogus"],
        ["list-chromatic", "-i", U24, "--kmax", "x"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
    with pytest.raises(SystemExit) as exc:
        run(["validate", "-h"])
    assert exc.value.code == 0


def test_shared_parser_is_unharmed_by_usage_errors_and_caller_copies(capsys):
    # run parses with one parser per process: a usage error in between,
    # or a change to a copy from build_parser, must not reach later runs
    with pytest.raises(SystemExit) as exc:
        run(["validate", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    build_parser().set_defaults(kmax=99, seed=7)
    argv = ["list-chromatic", "-i", U24]
    first = invoke(argv)
    second = invoke(argv)
    assert first[0] == 0
    assert first == second
    assert "seed: 0\n" in first[1] and "kmax: 3\n" in first[1]


class _Token(str):
    """A str subclass: argparse reads it, the scan leaves it to argparse."""


# values that the plain form may carry, and tokens it may not
_SCAN_VALUES = ("u24.m", "", "{0,1}", "0,2,1", "3", "0", "17", " 7", "1_0", "\u0663",
                "x", "2.5", "9" * 5000, "a b", "validate", "{}", "a=b")
_SCAN_ODD = ("-h", "--help", "--", "-", "-1", "--seed -1", "--seed=4", "--input=u24.m",
             "-iu24.m", "--inp", "--max", "--bogus", "-x", "-i", 5, None,
             b"validate", _Token("validate"), _Token("-i"))


def _scan_argv(rng):
    """A seeded argv: the plain form from the flag table's option strings,
    with no to three edits that mostly leave it."""
    options = [option for flag in cli._FLAGS for option in flag.options]
    commands = sorted(cli._HANDLERS) + ["nosuch", "", "Validate"]
    pairs = [[rng.choice(options), rng.choice(_SCAN_VALUES)] for _ in range(rng.randrange(5))]
    if rng.random() < 0.9:
        pairs.insert(rng.randrange(len(pairs) + 1), [rng.choice(commands)])
    argv = [token for pair in pairs for token in pair]
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        edit, at = rng.randrange(4), rng.randrange(len(argv) + 1)
        pool = (_SCAN_ODD, _SCAN_VALUES, options, commands)[rng.randrange(4)]
        if edit == 0 or not argv:
            argv.insert(at, rng.choice(pool))
        elif edit == 1:
            del argv[at - 1]
        elif edit == 2:
            argv[at - 1] = rng.choice(pool)
        else:
            argv.append(rng.choice(argv))
    return argv


def test_scan_agrees_with_argparse_on_seeded_argv(capsys):
    # argparse is the reference: what the scan accepts parses to an equal
    # Namespace there, and whatever argparse refuses (an exit or an
    # exception), the scan leaves to it
    rng = random.Random(38)
    parser = build_parser()
    accepted = refused = 0
    for _ in range(4000):
        argv = _scan_argv(rng)
        scanned = cli._scan(argv)
        try:
            parsed = parser.parse_args(argv)
        except (SystemExit, Exception):
            assert scanned is None, argv
            refused += 1
            continue
        if scanned is not None:
            assert vars(scanned) == vars(parsed), argv
            accepted += 1
    capsys.readouterr()
    assert accepted > 500 and refused > 1000, (accepted, refused)
    assert cli._scan(tuple(["validate", "-i", U24])) == parser.parse_args(["validate", "-i", U24])
    assert cli._scan(iter(["validate", "-i", U24])) is None


def test_golden_invocations_never_reach_argparse(monkeypatch):
    def no_parser():
        raise AssertionError("the plain form reached argparse")

    monkeypatch.chdir(DATA)
    monkeypatch.setattr(cli, "_parser", no_parser)
    cases = [case.values for case in _golden_cases()]
    assert len(cases) == 46
    for name, code, argv in cases:
        expected = (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
        assert invoke(argv) == (code, expected), name
    # run() with no argv scans sys.argv the same way
    name, code, argv = cases[0]
    monkeypatch.setattr(sys, "argv", ["matroidkit", *argv])
    assert invoke(None) == (code, (GOLDEN / f"{name}.out").read_bytes().decode("utf-8"))


def test_scan_defaults_come_from_the_flag_table():
    copy = build_parser()
    copy.set_defaults(kmax=99, seed=7)
    scanned = cli._scan(["list-chromatic", "-i", U24])
    assert scanned.kmax == 3 and scanned.seed == 0
    assert vars(scanned) == vars(build_parser().parse_args(["list-chromatic", "-i", U24]))
    assert copy.parse_args(["list-chromatic", "-i", U24]).kmax == 99


def test_a_device_with_no_end_is_refused_at_the_byte_bound(capsys):
    if not os.path.exists("/dev/zero"):
        pytest.skip("no /dev/zero")
    code, out = invoke(["validate", "-i", "/dev/zero"])
    assert code == 2
    bound = cli.FILE_BYTES_BOUND
    assert capsys.readouterr().err == f"error: cannot read /dev/zero: larger than {bound} bytes\n"
    assert out.endswith("input: /dev/zero\n")


def test_a_regular_file_over_the_byte_bound_is_refused_by_its_size(tmp_path, capsys):
    # sparse: the file takes no disk, and it is refused before it is read
    path = tmp_path / "sparse.m"
    with open(path, "wb") as fh:
        fh.truncate(cli.FILE_BYTES_BOUND + 1)
    assert invoke(["validate", "-i", str(path)])[0] == 2
    bound = cli.FILE_BYTES_BOUND
    assert capsys.readouterr().err == f"error: cannot read {path}: larger than {bound} bytes\n"


def _fifo_with(path, data: bytes):
    """A named pipe at path that a thread fills with data once it is opened."""
    os.mkfifo(path)

    def fill():
        with open(path, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=fill, daemon=True)
    writer.start()
    return writer


@pytest.mark.parametrize("kind", ["regular", "pipe"])
def test_a_file_at_the_byte_bound_is_read(tmp_path, monkeypatch, capsys, kind):
    # a bound of a few pipe chunks stands in for FILE_BYTES_BOUND: a file
    # of exactly the bound is read, and one byte more is refused
    text = (DATA / "u24.m").read_bytes()
    padded = text + b"#" * (3 * cli._READ_CHUNK + 5)
    path = tmp_path / "u24-padded.m"
    for bound, want in ((len(padded), 0), (len(padded) - 1, 2)):
        monkeypatch.setattr(cli, "FILE_BYTES_BOUND", bound)
        if kind == "regular":
            path.write_bytes(padded)
        else:
            writer = _fifo_with(path, padded)
        code, out = invoke(["validate", "-i", str(path)])
        if kind == "pipe":
            path.unlink()
            writer.join(timeout=10)
        err = capsys.readouterr().err
        assert code == want, err
        if want == 0:
            assert kv(out)["axioms"] == ["pass"]
        else:
            assert err == f"error: cannot read {path}: larger than {bound} bytes\n"


@pytest.mark.parametrize("command", ["circuits", "chromatic", "list-chromatic", "check-lemmas"])
def test_a_negative_max_n_exits_2(capsys, command):
    code, out = invoke([command, "-i", U24, "--max-n", "-3"])
    assert code == 2
    assert capsys.readouterr().err == "error: max_n must be nonnegative, got -3\n"
    assert "skipped" not in out and "needs n" not in out
    code, out = invoke(["check-lemmas", "-i", U24, "--max-n", "0"])
    assert code == 0 and "L1: skipped (size 4 > 0)" in out


def test_kmax_default_matches_library():
    import inspect

    library = inspect.signature(list_chromatic_number).parameters["kmax"].default
    assert build_parser().get_default("kmax") == library


def test_chromatic_refuses_loops(tmp_path):
    loopy = tmp_path / "loopy.m"
    loopy.write_text("matroid graphic\nedge 0 a a\n")
    code, _ = invoke(["chromatic", "-i", str(loopy)])
    assert code == 2


def test_circuits_bound_and_override(tmp_path):
    big = tmp_path / "big.m"
    big.write_text("matroid uniform\nn 13\nk 13\n")
    code, _ = invoke(["circuits", "-i", str(big)])
    assert code == 2  # refuses, never samples
    code, out = invoke(["circuits", "-i", str(big), "--max-n", "13"])
    assert code == 0
    assert kv(out)["circuit-count"] == ["0"]


def test_max_n_cannot_lift_the_mask_table_ceiling(tmp_path, capsys):
    # --max-n raises the chromatic bound, but no 2^n table is built above 16
    free = tmp_path / "free17.m"
    free.write_text("matroid uniform\nn 17\nk 17\n")
    code, _ = invoke(["chromatic", "-i", str(free), "--max-n", "17"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: mask table needs n <= 16, got 17"]


def test_list_chromatic_max_n_cannot_pass_the_listing_ceiling(tmp_path, capsys):
    # the listing ceiling is now the mask table's, read by the chromatic search
    u173 = tmp_path / "u173.m"
    u173.write_text("matroid uniform\nn 17\nk 3\n")
    code, _ = invoke(["list-chromatic", "-i", str(u173), "--max-n", "17"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: mask table needs n <= 16, got 17"]


@pytest.mark.parametrize(
    "text, argv, error",
    [
        (U2M, ["chromatic"], "chromatic search needs n <= 12, got 2000000"),
        (U2M, ["chromatic", "--max-n", "99999999"], "mask table needs n <= 16, got 2000000"),
        (U2M, ["list-chromatic"], "chromatic search needs n <= 12, got 2000000"),
        ("matroid table\nn -1\nrank {} 0\n", ["validate"], "ground set size must be nonnegative"),
        ("matroid table\nn 20000\nrank {} 0\n", ["validate"], "mask table needs n <= 16, got 20000"),
        (
            "matroid table\nn 1\nrank {} 0\nrank {1000000000000000000} 1\n",
            ["validate"],
            "subset {1000000000000000000} outside ground set (n=1)",
        ),
        (
            "matroid table\nn 1\nrank {} 0\nrank {18446744073709551616} 1\n",
            ["validate"],
            "subset {18446744073709551616} outside ground set (n=1)",
        ),
        (
            "matroid linear\nfield 1000000000000000000000000000057\ndim 1\nvec 0 1\n",
            ["validate"],
            "field order 1000000000000000000000000000057 is too large: it must be below 2^31",
        ),
        (U2M, ["list-chromatic", "--kmax", "0"], "chromatic search needs n <= 12, got 2000000"),
        (
            "matroid uniform\nn 6\nk 0\n",
            ["list-chromatic", "--kmax", "0"],
            "kmax must be at least 1, got 0",
        ),
        # compactness reads its chain from --family, not -i; the top level's
        # table refuses before the lists are read
        (
            "",
            [
                "compactness",
                "--family",
                str(DATA / "chain_u2m.m"),
                "--depth",
                "1",
                "--lists",
                str(DATA / "golden" / "ab-3.l"),
            ],
            "mask table needs n <= 16, got 2000000",
        ),
    ],
)
def test_absurd_sizes_are_refused_before_any_work(tmp_path, capsys, text, argv, error):
    path = tmp_path / "absurd.m"
    path.write_text(text)
    code, _ = invoke([*argv, "-i", str(path)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]


U1E18 = "matroid uniform\nn 1000000000000000000\nk 3\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["base"],
        ["base", "--order", "1,0"],
        ["mb"],
        ["color-from-base", "--lists", str(DATA / "golden" / "ab-3.l")],
        ["closure", "--subset", "{0}"],
        ["closed", "--subset", "{0}"],
        ["contract", "--contract", "{0}"],
    ],
)
def test_ground_set_scans_refuse_a_huge_file(tmp_path, capsys, argv):
    # each of these walks the ground set element by element
    path = tmp_path / "huge.m"
    path.write_text(U1E18)
    code, _ = invoke([*argv, "-i", str(path)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: ground-set scan needs n <= 10000, got 1000000000000000000"
    ]


def test_listing_for_a_huge_ground_set_is_refused_by_its_size(tmp_path, capsys):
    path = tmp_path / "huge.m"
    path.write_text(U1E18)
    lists = str(DATA / "golden" / "ab-3.l")
    code, _ = invoke(["compactness", "--family", str(path), "--lists", lists])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: listing covers [0, 1, 2] but the ground set is 0..999999999999999999"
    ]


def test_validate_walks_a_table_at_its_ceiling():
    code, out = invoke(["validate", "-i", str(DATA / "gf3_16.m")])
    assert code == 0
    assert kv(out)["n"] == ["16"] and kv(out)["axioms"] == ["pass"]


def test_byte_identical_reruns():
    for argv in [
        ["circuits", "-i", U24],
        ["check-lemmas", "-i", TRIANGLE],
        ["chromatic", "-i", GF2],
        ["mb", "-i", U24, "--order", "3,1,2,0"],
        ["list-chromatic", "-i", TRIANGLE, "--kmax", "3"],
    ]:
        code1, out1 = invoke(argv)
        code2, out2 = invoke(argv)
        assert (code1, out1) == (code2, out2)
        assert out1.endswith("\n")


def test_byte_identical_across_hash_seeds():
    # set/dict iteration order must never reach stdout
    import os
    import subprocess
    import sys

    outs = []
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "matroidkit.cli", "mb", "-i", U24],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]


def test_roundtrip_through_cli_formats():
    # parse -> serialize -> parse agreement for the bundled files
    import itertools

    from matroidkit.files import parse_matroid_text, serialize_matroid

    for path in (U24, TRIANGLE, GF2):
        m1 = parse_matroid_text(Path(path).read_text())
        m2 = parse_matroid_text(serialize_matroid(m1))
        for size in range(m1.n + 1):
            for combo in itertools.combinations(range(m1.n), size):
                assert m1.rank(combo) == m2.rank(combo)


def test_compactness_refuses_a_level_0_above_the_table_bound_before_any_line(tmp_path, capsys):
    # level 0 is not tabulated when it is built; its refusal must still
    # come before the family, depth and levels lines, as for a deeper level
    chain = tmp_path / "u17.m"
    chain.write_text("matroid uniform\nn 17\nk 2\n")
    lists = tmp_path / "lists.l"
    lists.write_text("".join(f"list {x} : a b\n" for x in range(17)))
    code, out = invoke(["compactness", "--family", str(chain), "--depth", "0", "--lists", str(lists)])
    assert code == 2
    assert out.splitlines() == [f"tool: matroidkit {__version__}", "command: compactness", "seed: 0"]
    assert capsys.readouterr().err.splitlines() == ["error: mask table needs n <= 16, got 17"]


def test_compactness_absurd_depth_exits_2(tmp_path, capsys):
    # level i has at least i elements, so a depth above the mask table's
    # bound is refused before any level is built
    lists = tmp_path / "lists.l"
    lists.write_text("list 0 : a b\n")
    code, _ = invoke(
        ["compactness", "--family", "growing-uniform", "--depth", "3000", "--lists", str(lists)]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def _unreadable(tmp_path, failure):
    if failure == "missing":
        return str(tmp_path / "missing.m")
    if failure == "directory":
        return str(tmp_path)
    path = tmp_path / "latin1.m"
    path.write_bytes("matroid uniform\nn 2\nk 1\n# caf\xe9\n".encode("latin-1"))
    return str(path)


@pytest.mark.parametrize("failure", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("kind", ["input", "lists", "family"])
def test_unreadable_file_exits_2(tmp_path, capsys, kind, failure):
    bad = _unreadable(tmp_path, failure)
    lists = tmp_path / "lists.l"
    lists.write_text("".join(f"list {x} : a b c\n" for x in range(4)))
    argv = {
        "input": ["validate", "-i", bad],
        "lists": ["color-from-base", "-i", U24, "--lists", bad],
        "family": ["compactness", "--family", bad, "--lists", str(lists)],
    }[kind]
    code, _ = invoke(argv)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


GOLDEN = DATA / "golden"


def _golden_cases():
    for line in (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            name, code, *argv = line.split()
            yield pytest.param(name, int(code), argv, id=name)


@pytest.mark.parametrize("name, code, argv", list(_golden_cases()))
def test_stdout_matches_golden(monkeypatch, name, code, argv):
    # each line of cases.txt is one invocation, run from tests/data; its
    # stdout is stored byte for byte in golden/<name>.out
    monkeypatch.chdir(DATA)
    expected = (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
    assert invoke(argv) == (code, expected)


def test_line_endings_and_a_bom_read_as_with_newline_translation(tmp_path, capsys):
    # a file is decoded from one bytes read with no newline translation;
    # the parsers end a line at LF, CRLF or a lone CR alike, so every
    # output and every error line number is the LF file's, and a BOM is
    # kept in the text, where the first line refuses it
    m, lists = tmp_path / "m.m", tmp_path / "lists.l"
    texts = {
        m: "# comment\nmatroid uniform\nn 4\nk 2\n",
        lists: "".join(f"list {x} : a b c\n" for x in range(4)),
    }

    def outputs(newline):
        for path, text in texts.items():
            path.write_bytes(text.replace("\n", newline).encode())
        got = [
            invoke(["circuits", "-i", str(m)]),
            invoke(["color-from-base", "-i", str(m), "--lists", str(lists)]),
        ]
        m.write_bytes("matroid uniform\nn 4\nk two\n".replace("\n", newline).encode())
        got.append((invoke(["validate", "-i", str(m)])[0], capsys.readouterr().err))
        return got

    want = outputs("\n")
    assert want[2] == (2, "error: line 3: k must be an integer, got 'two'\n")
    assert outputs("\r\n") == outputs("\r") == want
    m.write_bytes(b"\xef\xbb\xbf" + texts[m].encode())
    assert invoke(["validate", "-i", str(m)])[0] == 2
    assert capsys.readouterr().err == "error: line 1: expected 'matroid <kind>', got '\\ufeff# comment'\n"


@pytest.mark.parametrize(
    "data, reason, at",
    [
        (b"matroid uniform\nn 4\xff\nk 2\n", "invalid start byte", 19),
        (b"matroid \xe2\x82 uniform\n", "invalid continuation byte", 8),
        (b"matroid uniform\r\nn 4\r\nk 2\r\n\xe2\x82", "unexpected end of data", 27),
        (b"# x\r\n" * 30000 + b"\xff", "invalid start byte", 150000),
    ],
    ids=["start", "continuation", "end-after-crlf", "past-the-first-buffer"],
)
def test_not_utf8_names_the_byte(tmp_path, capsys, data, reason, at):
    path = tmp_path / "bad.m"
    path.write_bytes(data)
    assert invoke(["validate", "-i", str(path)])[0] == 2
    assert capsys.readouterr().err == f"error: cannot read {path}: not UTF-8 ({reason} at byte {at})\n"
