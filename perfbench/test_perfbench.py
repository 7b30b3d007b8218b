"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench
"""

import collections
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import arcdiagrams.cli as cli  # noqa: E402
from arcdiagrams import (  # noqa: E402
    InvalidReason,
    all_bdiagrams,
    block_word,
    check_cycle_word,
    validate_block_word,
)

import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argv(workload):
    first = workloads.build(workload, 11)
    assert workloads.build(workload, 11) == first
    assert workloads.build(workload, 12) != first


def test_invert_words_pass_check_cycle_word():
    for seed in range(5):
        for command in workloads.build("invert", seed):
            check_cycle_word(command.argv[1])


def test_spliced_words_are_unrealizable_by_construction():
    for seed in range(3):
        rejects = [c.argv[1] for c in workloads.build("blocks", seed) if c.kind == "reject"]
        assert len(rejects) == len(workloads.REJECT_LADDER)
        for word in rejects:
            prefix, suffix = word[:-3], word[-3:]
            assert suffix == workloads.REJECT_SUFFIX
            assert len(prefix) == workloads.REJECT_PREFIX
            # the prefix has a diagram, and its arcs cannot reach the suffix
            assert ref.realizations(prefix)[0] > 0
            assert prefix.count("r") * 2 + prefix.count("a") + prefix.count("k") == (
                prefix.count("R") * 2 + prefix.count("A") + prefix.count("k")
            )
            assert ref.realizations(word)[0] == 0


def test_spliced_words_are_unrealizable_at_small_sizes():
    rng = random.Random(3)
    for n in range(4, 10):
        for _ in range(10):
            m = rng.randint(2, n // 2)
            prefix = ref.block_word(workloads.sample_diagram(rng, n, m, rng.randint(0, m - 1)))
            verdict = validate_block_word(prefix + workloads.REJECT_SUFFIX)
            assert verdict.reason is InvalidReason.UNREALIZABLE


def test_self_time_on_synthetic_span_tree():
    rec = spans.Recorder()
    tree = [  # name, parent, start, end
        ("cli.main", -1, 0.0, 10.0),
        ("words.cycle_word", 0, 1.0, 4.0),
        ("perm.arc_set", 1, 2.0, 3.0),
        ("words.cycle_word", 0, 5.0, 9.0),
    ]
    for name, parent, start, end in tree:
        rec.names.append(name)
        rec.parents.append(parent)
        rec.starts.append(start)
        rec.ends.append(end)
    assert spans.self_times(rec) == [3.0, 2.0, 1.0, 4.0]
    metrics = spans.layer_metrics(rec)
    assert metrics["cli.main.self_s"] == 3.0
    assert metrics["words.cycle_word.calls"] == 2
    assert metrics["words.cycle_word.self_s"] == 6.0
    assert metrics["words.cycle_word.us_per_call"] == 3.5e6
    assert metrics["perm.arc_set.self_s"] == 1.0


def test_tracer_records_nested_spans_and_restores_functions():
    original = sys.modules["arcdiagrams.words"].arc_set
    rec = spans.Recorder()
    with spans.Tracer(rec):
        outcome = run.in_process(cli, workloads.Command("census", ("census", "5", "--json")))
    assert sys.modules["arcdiagrams.words"].arc_set is original
    assert json.loads(outcome.stdout)["permutations"] == 24
    by_name = collections.Counter(rec.names)
    assert by_name["perm.arc_set"] == by_name["words.cycle_word"] == 24
    assert rec.counts["perm.all_cyclic_perms.items"] == 24
    parent_of = {rec.names[i]: rec.names[p] for i, p in enumerate(rec.parents) if p >= 0}
    assert parent_of["perm.arc_set"] == "words.cycle_word"
    assert parent_of["words.cycle_word"] == "cli.census_report"
    assert parent_of["cli.census_report"] == "cli.main"


@pytest.mark.parametrize("word", ["rkrRkR", "rrRrRrRrRR"])
def test_a_dropped_permutation_counts_as_a_failure(word):
    command = workloads.Command("invert", ("invert", word, "--json"))
    outcome = run.in_process(cli, command)
    payload = json.loads(outcome.stdout)
    first = payload["perms"][0]
    dropped = [p for p in payload["perms"] if p != first and tuple(p) != ref.reverse(tuple(first))]
    corrupted = json.dumps(dict(payload, perms=dropped))
    tally = run.Tally()
    tally.add(command, outcome)
    tally.add(command, run.Outcome(0, corrupted, 0.0))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.results == len(payload["perms"])


def test_a_duplicated_generator_counts_as_a_failure():
    blocks = "1 4 | 2 | 3 5 6"
    command = workloads.Command(
        "generators", ("generators", blocks, "--list", "--method", "table", "--json")
    )
    outcome = run.in_process(cli, command)
    payload = json.loads(outcome.stdout)
    payload["perms"][-1] = payload["perms"][0]
    tally = run.Tally()
    tally.add(command, outcome)
    tally.add(command, run.Outcome(0, json.dumps(payload), 0.0))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_fibre_size_matches_the_full_scan():
    for n in range(3, 9):
        found = ref.fibres(n)
        assert len(found) == ref.motzkin(n - 2)
        assert all(ref.fibre_size(w) == len(perms) for w, perms in found.items())


def test_realization_count_matches_every_diagram():
    for n in range(2, 7):
        counts = collections.Counter(block_word(b) for b in all_bdiagrams(n))
        assert all(ref.realizations(w)[0] == k for w, k in counts.items())


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(v) for v in range(1, 43)]) == (32.0, 100.0 * 32 / 42)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    reported = [f"{name}.{stat}" for name, stats in spans.REPORTED.items() for stat in stats]
    reported += ["cli.stdout_bytes", "trace.overhead_frac"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in reported
    }
