import ast
import random
from collections import Counter

from matroidkit import (
    Matroid,
    MatroidError,
    OrderedBase,
    all_bases,
    anchor_classes,
    check_circuit_elimination,
    closure,
    closure_by_intersection,
    graphic,
    run_lemma_battery,
    uniform,
    validate_axioms,
)
from matroidkit import core, lemmas
from matroidkit.core import bits, mask_of
from matroidkit.files import parse_subset_literal
from matroidkit.lemmas import (
    BATTERY,
    check_anchor_repetition,
    check_base_characterization,
    check_circuit_closure_absorption,
    check_closed_intersection,
    check_closure_minimality,
    check_closure_routes_agree,
    check_contraction_independence,
    check_contraction_is_matroid,
    check_contraction_loop_free,
    check_fitting_common,
    check_fitting_monotone,
    check_flat_extension_count,
    check_flat_extension_dependence,
    check_flatness_joint,
    check_flatness_monotone,
    check_maximal_independent_size,
    check_strong_elimination,
    check_unique_circuit_in_base_extension,
    check_weak_elimination,
)

from conftest import (
    anchor_repetition_by_sweep,
    base_characterization_by_closed_sets,
    circuit_closure_absorption_by_closed_sets,
    circuit_elimination_by_circuits,
    closed_intersection_by_pairs,
    closure_minimality_by_closure,
    closure_routes_by_intersection,
    contraction_independence_by_ranks,
    contraction_is_matroid_by_oracle,
    contraction_loop_free_by_is_closed,
    fitting_common_by_combinations,
    fitting_monotone_by_sweep,
    flat_extension_count_by_sweep,
    flat_extension_dependence_by_combinations,
    flatness_joint_by_sweep,
    flatness_monotone_by_sweep,
    maximal_independent_size_by_sweep,
    perturbed_tables,
    random_matroid,
    strong_elimination_by_circuits,
    unique_circuit_in_base_extension_by_circuits,
    weak_elimination_by_circuits,
)


def test_battery_keys_and_order():
    results = run_lemma_battery(uniform(3, 2))
    assert [r.key for r in results] == [key for key, _ in BATTERY]
    assert [r.key for r in results] == [
        "L1", "L2a", "L2b", "L3", "L4", "L5", "L6", "L7abc", "L8", "L9",
        "L10ab", "L11", "L12", "L13", "L14", "L15", "L16", "L17", "L18",
        "L19-analog",
    ]


def test_battery_passes_on_suite(suite7):
    for m in suite7:
        for r in run_lemma_battery(m):
            assert r.ok, (m.name, r.key, r.detail)
            assert r.status != "skipped", (m.name, r.key)


def test_battery_skips_above_bound():
    big = Matroid(9, lambda a: a.bit_count())
    results = run_lemma_battery(big)
    assert all(r.status == "skipped" for r in results)
    assert all("size 9" in r.detail for r in results)
    # an explicit override runs them
    results = run_lemma_battery(big, max_n=9)
    assert all(r.status == "pass" for r in results)


def test_battery_max_n_cannot_pass_the_ceiling():
    results = run_lemma_battery(uniform(20, 3), max_n=40)
    assert [r.detail for r in results] == ["skipped (size 20 > 10)"] * len(BATTERY)
    assert all(r.status == "skipped" for r in results)


def test_battery_vacuous_notes():
    results = {r.key: r for r in run_lemma_battery(uniform(3, 0))}
    assert results["L17"].status == "pass"
    assert "loops" in results["L17"].detail
    assert results["L14"].status == "pass"  # refusal branch exercised


def test_battery_catches_broken_oracles():
    # an unvalidated oracle violating submodularity must trip some check
    table = {
        frozenset(): 0,
        frozenset({0}): 0,
        frozenset({1}): 1,
        frozenset({0, 1}): 2,
    }
    broken = Matroid(2, lambda a: table[frozenset(bits(a))])
    results = run_lemma_battery(broken)
    failed = [r.key for r in results if r.status == "fail"]
    assert failed, "a non-matroid sailed through the battery"


def test_battery_catches_nonlocal_rank_jump():
    # rank jumping by 2 breaks the flatness-transfer checks
    bad = Matroid(3, lambda a: 2 * a.bit_count())
    results = run_lemma_battery(bad)
    assert any(r.status == "fail" for r in results)


def test_battery_aborts_only_on_named_oracle_faults():
    # the battery catches MatroidError alone, so any other exception a
    # check raises on a non-matroid escapes and fails this test
    aborted = 0
    for label, n, table in perturbed_tables(seed=4, per_base=10):
        results = run_lemma_battery(Matroid(n, lambda a, t=table: t[a]))
        aborted += sum(r.detail.startswith("check aborted: ") for r in results)
    assert aborted > 0


def _outcome(check, m):
    try:
        r = check(m)
    except MatroidError as e:
        return "abort", f"check aborted: {e}"
    return r.status, r.detail


def _anchor_oracles(suite7):
    """Desk suite, seeded random matroids and perturbed non-matroid tables."""
    for m in suite7:
        yield m.name, m
    rng = random.Random(11)
    for kind in ("uniform", "graphic", "gf2", "gf3"):
        for n in range(1, 8):
            for _ in range(3):
                m = random_matroid(rng, kind, n)
                yield m.name, m
    for seed in (4, 5, 6):
        for label, n, table in perturbed_tables(seed=seed, per_base=10):
            yield label, Matroid(n, lambda a, t=table: t[a])


def _named_order(detail):
    """The ordered base and circuit of an L17 fail detail."""
    head, circuit = detail.removeprefix("base ").split(" circuit ")
    return OrderedBase(ast.literal_eval(head)), parse_subset_literal(circuit.split(":")[0])


def test_anchor_repetition_matches_the_order_sweep(suite7):
    statuses = Counter()
    for label, m in _anchor_oracles(suite7):
        status, detail = _outcome(check_anchor_repetition, m)
        ref_status, ref_detail = _outcome(anchor_repetition_by_sweep, m)
        assert status == ref_status, (label, detail, ref_detail)
        statuses[status] += 1
        if status != "fail":
            assert detail == ref_detail, label
            continue
        # the peel may name another order of the same base, and another circuit
        ob, circuit = _named_order(detail)
        assert ob.as_set() == _named_order(ref_detail)[0].as_set(), label
        anchors = [anchor_classes(m, ob).mapping[x] for x in circuit]
        assert len(set(anchors)) == len(anchors), (label, detail)
    assert statuses == {"pass": 792, "abort": 44, "fail": 14}


def test_anchor_repetition_builds_one_decomposition_per_base(suite7, monkeypatch):
    # a table that passes the unit-increase axioms is certified with no
    # decomposition; one that fails them gets at most one per base, for
    # anchor_classes' refusals
    built = []

    def counting(m, b):
        built.append(b)
        return anchor_classes(m, b)

    monkeypatch.setattr(lemmas, "anchor_classes", counting)
    for m in (uniform(9, 7), uniform(8, 7)):
        built.clear()
        assert check_anchor_repetition(m).status == "pass"
        assert not built, m.name
    decomposed = 0
    for label, m in _anchor_oracles(suite7):
        built.clear()
        _outcome(check_anchor_repetition, m)
        try:
            is_matroid = validate_axioms(m).ok
        except MatroidError:
            is_matroid = False
        if is_matroid or not built:
            assert not built, label
            continue
        # the bases in all_bases order, up to the one the check stopped at
        assert built == [OrderedBase(b) for b in all_bases(m)][: len(built)], label
        decomposed += 1
    assert decomposed > 0


def test_anchor_repetition_peels_only_tables_that_are_no_matroid(suite7, monkeypatch):
    # in a matroid no base element lies in the part of exactly one element
    # of a circuit, which certifies the base with no peel
    peeled = []

    def spy(parts, base, _peel=lemmas._distinct_anchor_order):
        peeled.append(base)
        return _peel(parts, base)

    monkeypatch.setattr(lemmas, "_distinct_anchor_order", spy)
    routes = Counter()
    for label, m in _anchor_oracles(suite7):
        peeled.clear()
        status, _ = _outcome(check_anchor_repetition, m)
        try:
            is_matroid = validate_axioms(m).ok
        except MatroidError:
            is_matroid = False
        assert not (peeled and is_matroid), label
        assert peeled or status != "fail", label
        routes["matroid" if is_matroid else "no matroid", "peel" if peeled else "certificate"] += 1
    assert routes["matroid", "certificate"] > 0
    assert routes["no matroid", "peel"] > 0


def test_one_battery_builds_each_fact_once(suite7, monkeypatch):
    # every fact that several checks read is built once per battery run
    built = Counter()

    def count(module, name, argument=lambda args: None):
        def counting(*args, _build=getattr(module, name)):
            built[name, argument(args)] += 1
            return _build(*args)

        monkeypatch.setattr(module, name, counting)

    count(lemmas, "_step_masks", lambda args: args[1])
    count(core, "_is_rank_function")
    count(lemmas, "_closed_flags")
    count(lemmas, "_closed_meets")
    count(core, "_found_circuits")
    count(lemmas, "all_bases")
    count(lemmas, "chromatic_number")
    seen = set()
    for m in suite7:
        built.clear()
        assert all(r.status == "pass" for r in run_lemma_battery(m)), m.name
        assert set(built.values()) <= {1}, (m.name, built)
        seen |= set(built)
    assert seen == {
        ("_step_masks", 0), ("_step_masks", 1), ("_is_rank_function", None),
        ("_closed_flags", None), ("_closed_meets", None), ("_found_circuits", None),
        ("all_bases", None), ("chromatic_number", None),
    }


def _checks_alone(make):
    """(key, status, detail) of each battery check run alone on a fresh make()."""
    out = []
    for key, check in BATTERY:
        try:
            r = check(make())
        except MatroidError as e:
            out.append((key, "fail", f"check aborted: {e}"))
        else:
            out.append((r.key, r.status, r.detail))
    return out


def test_battery_equals_each_check_run_alone(suite7):
    # one fact set per run changes no result: not a fail or abort detail,
    # and not the order in which a faulting oracle is read
    outcomes = Counter()
    for label, make in _mask_check_inputs(suite7):
        got = [(r.key, r.status, r.detail) for r in run_lemma_battery(make())]
        assert got == _checks_alone(make), label
        for key, status, detail in got:
            outcomes["abort" if detail.startswith("check aborted: ") else status] += 1
    assert set(outcomes) == {"pass", "fail", "abort"}, outcomes


_MASK_CHECKS = (
    (check_maximal_independent_size, maximal_independent_size_by_sweep),
    (check_weak_elimination, weak_elimination_by_circuits),
    (check_strong_elimination, strong_elimination_by_circuits),
    (check_unique_circuit_in_base_extension, unique_circuit_in_base_extension_by_circuits),
    (check_flatness_monotone, flatness_monotone_by_sweep),
    (check_flatness_joint, flatness_joint_by_sweep),
    (check_closed_intersection, closed_intersection_by_pairs),
    (check_closure_minimality, closure_minimality_by_closure),
    (check_closure_routes_agree, closure_routes_by_intersection),
    (check_base_characterization, base_characterization_by_closed_sets),
    (check_fitting_monotone, fitting_monotone_by_sweep),
    (check_fitting_common, fitting_common_by_combinations),
    (check_contraction_is_matroid, contraction_is_matroid_by_oracle),
    (check_contraction_independence, contraction_independence_by_ranks),
    (check_contraction_loop_free, contraction_loop_free_by_is_closed),
    (check_circuit_closure_absorption, circuit_closure_absorption_by_closed_sets),
    (check_flat_extension_dependence, flat_extension_dependence_by_combinations),
    (check_flat_extension_count, flat_extension_count_by_sweep),
    (check_circuit_elimination, circuit_elimination_by_circuits),
)


def test_base_characterization_fails_where_closure_and_maximality_part():
    # "maximal" and "independent with full closure" read different ranks,
    # so a table that is no matroid can set them apart; each failure names
    # a B on which they differ
    failed = []
    for label, n, table in perturbed_tables(seed=6, per_base=3):
        m = Matroid(n, table.__getitem__)
        r = check_base_characterization(m)
        if r.status == "fail":
            b = mask_of(parse_subset_literal(r.detail.removeprefix("B=")))
            size = b.bit_count()
            maximal = table[b] == size and all(
                table[b | 1 << x] == size for x in range(n) if not b >> x & 1
            )
            spans = closure_by_intersection(m, bits(b)) == tuple(range(n))
            assert maximal != (table[b] == size and spans), label
            failed.append(label)
        else:
            assert r.status == "pass", label
    assert len(failed) == 11
    assert "uniform n=4 mask=13 +1" in failed


def _mask_check_inputs(suite6):
    """(label, make) pairs; make() gives a matroid with no rank cached yet
    when its oracle may fault, so each run meets the faults afresh."""
    for m in suite6:
        yield m.name, lambda m=m: m
    rng = random.Random(27)
    for kind in ("uniform", "graphic", "gf2", "gf3"):
        for n in range(1, 8):
            for _ in range(2):
                m = random_matroid(rng, kind, n)
                yield m.name, lambda m=m: m
    for seed in (4, 5, 6):
        for label, n, table in perturbed_tables(seed=seed, per_base=10):
            yield label, lambda n=n, t=table: Matroid(n, t.__getitem__)
    yield from _faulting_tables()
    yield from _capped_tables()


def _capped_tables():
    """(label, make) pairs for tables with ranks above the rank image's cap
    of 126, where two capped ranks would read as equal."""
    for k in (100, 127, 200):
        yield f"{k}*|A| on 3", lambda k=k: Matroid(3, lambda a: k * a.bit_count())
        yield f"{k} + min(|A|, 2) on 4", lambda k=k: Matroid(4, lambda a: k + min(a.bit_count(), 2))
        yield f"{k} + min(|A|, 2) on 4, 0 at {{}}", lambda k=k: Matroid(
            4, lambda a: k + min(a.bit_count(), 2) if a else 0
        )
        table = [random.Random(k).choice((0, k, k + 1, 2 * k)) for _ in range(16)]
        yield f"{k}-scaled random table on 4", lambda t=table: Matroid(4, t.__getitem__)


def _faulting_tables():
    """(label, make) pairs for matroid tables with -1, True or 1.5 at one or two masks."""
    bases = (uniform(3, 2), uniform(4, 1), graphic([(0, "a", "b"), (1, "b", "c"), (2, "a", "c"), (3, "c", "d")]))
    for base in bases:
        full = (1 << base.n) - 1
        for bad in (-1, True, 1.5):
            for mask in sorted({0, 1, 3, 5, full}):
                table = list(base.mask_table())
                table[mask] = bad
                yield f"{base.name} {bad!r} at {mask}", lambda b=base, t=table: Matroid(b.n, t.__getitem__)
        # two faults: the message names the one a check meets first (a
        # closure or closedness test reads {2} before {0,1})
        for first, second in ((3, full), (full, 3), (5, 6), (6, 5), (3, 4), (4, 3)):
            table = list(base.mask_table())
            table[first], table[second] = -1, 1.5
            label = f"{base.name} -1 at {first}, 1.5 at {second}"
            yield label, lambda b=base, t=table: Matroid(b.n, t.__getitem__)


def _result(check, m):
    try:
        return check(m)
    except MatroidError as e:
        return "abort", f"check aborted: {e}"


def test_mask_checks_match_their_references(suite6):
    # each check that keeps its subsets as masks gives what its reference
    # sweep gives, on a matroid whose ranks are not yet cached (so oracle
    # faults are met in the check's own order) and, as the battery runs
    # it after L1, on the same matroid once its mask table is built
    outcomes = Counter()
    for label, make in _mask_check_inputs(suite6):
        m = make()
        try:
            m.mask_table()
        except MatroidError:
            m = None
        for check, reference in _MASK_CHECKS:
            got = _result(check, make())
            assert got == _result(reference, make()), (label, check.__name__, got)
            if isinstance(got, tuple):
                outcomes[check.__name__, "abort"] += 1
            else:
                outcomes[check.__name__, "pass" if got.ok else "fail"] += 1
            if m is not None:
                assert _result(check, m) == _result(reference, m), (label, check.__name__)
    # every check passes on some input, fails on another and aborts on a third
    assert set(outcomes) == {
        (check.__name__, status) for check, _ in _MASK_CHECKS for status in ("pass", "fail", "abort")
    }, outcomes


# each check that decides by a local form first, and the sweep it falls
# back to when the form does not certify
_LOCAL_FORMS = (
    (check_weak_elimination, "_weak_elimination_sweep"),
    (check_strong_elimination, "check_circuit_elimination"),
    (check_closed_intersection, "_closed_masks"),
    (check_closure_minimality, "_first_not_monotone"),
    (check_fitting_monotone, "_fitting_monotone_sweep"),
    (check_fitting_common, "_fitting_common_sweep"),
    (check_contraction_is_matroid, "contract"),
    (check_contraction_independence, "_contraction_independence_sweep"),
    (check_circuit_closure_absorption, "_closed_masks"),
)


def test_local_forms_certify_on_some_inputs_and_sweep_on_others(suite6, monkeypatch):
    # each local form certifies on some input, with no sweep, and falls
    # back to its sweep on another; test_mask_checks_match_their_references
    # holds both routes to the reference
    swept = []
    for _, name in _LOCAL_FORMS:
        def spy(*args, _name=name, _sweep=getattr(lemmas, name)):
            swept.append(_name)
            return _sweep(*args)

        monkeypatch.setattr(lemmas, name, spy)
    outcomes = Counter()
    for label, make in _mask_check_inputs(suite6):
        for check, name in _LOCAL_FORMS:
            swept.clear()
            got = _result(check, make())
            if isinstance(got, tuple):
                continue  # the oracle faulted before any form was read
            if name in swept:
                outcomes[check.__name__, "swept"] += 1
            else:
                outcomes[check.__name__, "certified"] += 1
                # L7abc's form certifies monotonicity alone
                assert got.status == "pass" or check is check_closure_minimality, (label, check.__name__)
    assert set(outcomes) == {
        (check.__name__, route) for check, _ in _LOCAL_FORMS for route in ("certified", "swept")
    }, outcomes


_REFERENCES = {
    "L1": maximal_independent_size_by_sweep,
    "L2a": weak_elimination_by_circuits,
    "L2b": strong_elimination_by_circuits,
    "L3": unique_circuit_in_base_extension_by_circuits,
    "L4": flatness_monotone_by_sweep,
    "L5": flatness_joint_by_sweep,
    "L6": closed_intersection_by_pairs,
    "L7abc": closure_minimality_by_closure,
    "L8": closure_routes_by_intersection,
    "L9": base_characterization_by_closed_sets,
    "L11": contraction_is_matroid_by_oracle,
    "L12": contraction_independence_by_ranks,
    "L13": contraction_loop_free_by_is_closed,
    "L16": circuit_closure_absorption_by_closed_sets,
    "L18": flat_extension_dependence_by_combinations,
    "L19-analog": flat_extension_count_by_sweep,
}


def test_battery_matches_the_battery_of_references(suite6, monkeypatch):
    # the whole battery, with each mask check swapped for its reference
    # (L10a and L10b inside L10ab), gives the same list: the checks before
    # and after a mask check see the matroid as the reference leaves it
    # the battery hands each check its run's fact set, which a reference ignores
    def ignoring_facts(reference):
        return lambda m, facts=None: reference(m)

    inputs = list(_mask_check_inputs(suite6))
    got = [run_lemma_battery(make()) for _, make in inputs]
    monkeypatch.setattr(lemmas, "BATTERY", tuple(
        (key, ignoring_facts(_REFERENCES[key]) if key in _REFERENCES else fn) for key, fn in BATTERY
    ))
    monkeypatch.setattr(lemmas, "check_fitting_monotone", ignoring_facts(fitting_monotone_by_sweep))
    monkeypatch.setattr(lemmas, "check_fitting_common", ignoring_facts(fitting_common_by_combinations))
    outcomes = Counter()
    for (label, make), results in zip(inputs, got):
        assert run_lemma_battery(make()) == results, label
        for r in results:
            if r.key in _REFERENCES or r.key == "L10ab":
                outcomes[r.key, "abort" if r.detail.startswith("check aborted: ") else r.status] += 1
    assert set(outcomes) == {
        (key, status) for key in (*_REFERENCES, "L10ab") for status in ("pass", "fail", "abort")
    }, outcomes


