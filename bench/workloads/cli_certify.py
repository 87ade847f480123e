"""cli-certify: the command-line front end, called in-process on seeded files.

Exists because files, cli, lemmas, closure and contraction are otherwise
unmeasured.  Ops call ``cli.run`` in-process: a subprocess would mostly
measure interpreter start-up and hide the CLI's own few milliseconds.
Each cycle runs all 12 commands over eight seeded matroid files (two per
file kind: uniform, graphic, linear, table) and seeded listing files,
plus six malformed-input ops (bad syntax, an out-of-range --subset, a
missing -i file), each expecting exit 2 with a one-line message.
"""

from __future__ import annotations

import argparse
import io
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout

import matroidkit as mk
from matroidkit import cli, files

from harness import Workload
from workloads.common import random_edges, random_listing, random_vectors

KMAX = 3  # the CLI's default --kmax
CHAIN_DEPTH = 2


def _matroids(rng: random.Random):
    """Two loop-free matroids per file kind, with n = 4 and n = 5."""
    out = [mk.uniform(n, rng.randrange(1, n)) for n in (4, 5)]
    out += [mk.graphic(random_edges(rng, n, 3 + n % 2)) for n in (4, 5)]
    out.append(mk.linear(mk.VectorSpec(2, 3, random_vectors(rng, 4, 2, 3, True))))
    out.append(mk.linear(mk.VectorSpec(3, 3, random_vectors(rng, 5, 3, 3, True))))
    for n in (4, 5):
        base = mk.graphic(random_edges(rng, n, 3 + n % 2))
        out.append(mk.from_table(mk.tabulate(base)))
    return out


def _subset(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(n), rng.randrange(0, n))))


def _reference_task() -> int:
    """The gauge's task (see hostspeed): argparse and redirected output,
    standard library only, like the front end's own work per call."""
    parser = argparse.ArgumentParser(prog="reference")
    commands = parser.add_subparsers(dest="command")
    for i in range(4):
        command = commands.add_parser(f"command{i}", help=f"command {i}")
        command.add_argument("-i", "--input", required=True)
        command.add_argument("--subset", default="{}")
        command.add_argument("--kmax", type=int, default=3)
    args = parser.parse_args(["command2", "-i", "in.m", "--kmax", "4"])
    out = io.StringIO()
    with redirect_stdout(out):
        print(args.command, args.input, args.kmax)
    return len(out.getvalue())


def _fields(stdout: str) -> dict:
    out: dict = {}
    for line in stdout.splitlines():
        if not line.startswith("#") and ": " in line:
            key, value = line.split(": ", 1)
            out.setdefault(key, []).append(value)
    return out


class CliCertify(Workload):
    name = "cli-certify"
    reference = staticmethod(_reference_task)

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.ops = []  # (argv, expected exit code, expected answer fields or None)
        for j, m in enumerate(_matroids(rng)):
            path = self._write(f"m{j}.m", files.serialize_matroid(m))
            self._matroid_ops(rng, path, m)
        for j, family in enumerate(sorted(mk.BUILTIN_FAMILIES)):
            chain = mk.BUILTIN_FAMILIES[family]()
            top = chain.level(CHAIN_DEPTH)
            lists = random_listing(rng, top.n, 2, 3)
            path = self._write(f"chain{j}.l", files.serialize_listing(lists))
            phi = mk.extend_coloring(chain, lists, CHAIN_DEPTH)
            want = {"extended": ["true" if phi is not None else "false"]}
            if phi is None:
                level = mk.first_uncolorable_level(chain, lists, CHAIN_DEPTH)
                want["uncolorable-level"] = [str(level)]
            argv = ["compactness", "--family", family, "--depth", str(CHAIN_DEPTH), "--lists", path]
            self.ops.append((argv, 0 if phi is not None else 1, want))
        bad = [
            self._write("bad0.m", "matroid uniform\nn four\nk 2\n"),
            self._write("bad1.m", "matroid graphic\nedge 0 a\n"),
        ]
        good = os.path.join(workdir, "m0.m")
        missing = [os.path.join(workdir, f"missing{i}.m") for i in range(2)]
        self.ops += [
            (["validate", "-i", bad[0]], 2, None),
            (["circuits", "-i", bad[1]], 2, None),
            (["closure", "-i", good, "--subset", "{0,9}"], 2, None),
            (["closed", "-i", good, "--subset", "{7}"], 2, None),
            (["validate", "-i", missing[0]], 2, None),
            (["chromatic", "-i", missing[1]], 2, None),
        ]
        rng.shuffle(self.ops)
        self.ops = [(i, *op) for i, op in enumerate(self.ops)]
        self.baseline = {}
        for op in self.ops:  # warm-up, and the stdout every op must repeat
            try:
                code, stdout, _ = self.run(op)
            except Exception as e:
                self.baseline[op[0]] = (None, f"warm-up raised {type(e).__name__}")
                continue
            self.baseline[op[0]] = (stdout, self._answer_fault(op, code, stdout))

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _matroid_ops(self, rng: random.Random, path: str, m):
        """One op per command on this file, with expected answers from the library."""
        n = m.n
        order = list(range(n))
        rng.shuffle(order)
        order_arg = ",".join(map(str, order))
        ob = mk.greedy_base(m, order)
        s1, s2, z = _subset(rng, n), _subset(rng, n), (rng.randrange(n),)
        mc = mk.contract(m, z)
        decomp = mk.anchor_classes(m, ob)
        size = n - m.full_rank() + 1
        lists = random_listing(rng, n, size, size + 1)
        list_path = self._write(os.path.basename(path) + ".l", files.serialize_listing(lists))
        phi = mk.color_from_base(m, ob, lists)
        ops = [
            (["validate", "-i", path], {"axioms": ["pass"]}),
            (["circuits", "-i", path],
             {"circuit": [mk.set_literal(c) for c in mk.circuits(m)]}),
            (["closure", "-i", path, "--subset", mk.set_literal(s1)],
             {"closure": [mk.set_literal(mk.closure_by_intersection(m, s1))],
              "rank": [str(m.rank(s1))]}),
            (["closed", "-i", path, "--subset", mk.set_literal(s2)],
             {"closed": ["true" if mk.closure_by_intersection(m, s2) == s2 else "false"]}),
            (["contract", "-i", path, "--contract", mk.set_literal(z)],
             {f"rank {mk.set_literal(a)}": [str(mk.contracted_rank_by_minimization(
                 m, z, [mc.element_map[i] for i in a]))] for a in _all_subsets(mc.n)}),
            (["base", "-i", path, "--order", order_arg],
             {"base": ["(" + ",".join(map(str, ob.elements)) + ")"]}),
            (["mb", "-i", path, "--order", order_arg],
             {"anchor": [f"{x} -> {decomp.mapping[x]}" for x in range(n)],
              "max-class-size": [str(decomp.max_class_size)]}),
            (["chromatic", "-i", path], {"chromatic": [str(mk.chromatic_number(m).value)]}),
            (["color-from-base", "-i", path, "--order", order_arg, "--lists", list_path],
             {"color": [f"{x} {phi[x]}" for x in sorted(phi)], "proper": ["true"]}),
        ]
        if n == 4:
            lcn = mk.list_chromatic_number(m, kmax=KMAX)
            value = str(lcn.value) if lcn.value is not None else f">= {lcn.lower_bound}"
            ops.append((["list-chromatic", "-i", path], {"list-chromatic": [value]}))
            results = mk.run_lemma_battery(m)
            failed = sum(r.status == "fail" for r in results)
            ops.append((["check-lemmas", "-i", path], {"lemmas-failed": [str(failed)]}))
        for argv, want in ops:
            code = 1 if argv[0] == "check-lemmas" and want["lemmas-failed"] != ["0"] else 0
            self.ops.append((argv, code, want))

    def _answer_fault(self, op, code: int, stdout: str):
        _, argv, want_code, want = op
        if want is None or code != want_code:
            return None  # judged per op by the exit-code check
        got = _fields(stdout)
        for key, values in want.items():
            if got.get(key) != values:
                return f"{argv[0]}: {key} is {got.get(key)}, library says {values}"
        return None

    def cycle(self, index: int) -> list:
        return self.ops

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(op[1])
        return code, out.getvalue(), err.getvalue()

    def check(self, op, result):
        i, argv, want_code, want = op
        code, stdout, stderr = result
        if code != want_code:
            return f"{argv[0]} exited {code}, expected {want_code}"
        if want is None:
            lines = stderr.splitlines()
            if len(lines) != 1 or not lines[0].startswith("error: "):
                return f"{argv[0]}: expected one 'error:' line on stderr, got {len(lines)}"
            return None
        base_stdout, fault = self.baseline[i]
        if fault is not None:
            return fault
        if stdout != base_stdout:
            return f"{argv[0]}: stdout differs from the warm-up call"
        return None

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _all_subsets(n: int):
    for mask in range(1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)
