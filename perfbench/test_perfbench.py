"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import io
import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from pdfol.report import canonical_bytes  # noqa: E402

EXPECTED = W.Expected.load(run.EXPECTED)


def draw(workload, seed, n_passes=3):
    stream = W.passes(workload, seed)
    return [(op.args, op.key)
            for op in itertools.chain.from_iterable(
                next(stream) for _ in range(n_passes))]


def test_generator_is_deterministic_per_seed():
    for workload in W.WORKLOADS:
        assert draw(workload, 11) == draw(workload, 11)
        assert draw(workload, 11) != draw(workload, 12)


def test_every_drawn_input_has_a_stored_answer():
    for workload in W.WORKLOADS:
        for seed in range(20):
            for _, key in draw(workload, seed, 2):
                assert key in EXPECTED.answers[workload], key


def test_epsilon_off_by_one_fails_the_op():
    mode, p, m, N, shape = "exact", 2, 6, 10, "dense"
    text = W.saddle_text(p, m, W.tail_text(W.TAILS[shape][0], mode))
    op = W.Op("homological", "exact", (mode, N, text),
              W.text_key(mode, N, text))
    outcome = W.execute(op)
    assert EXPECTED.ok(op, outcome)
    stored = EXPECTED.answers["homological"][op.key]
    num, den = map(int, stored["answer"]["epsilon"].split("/"))
    wrong = dict(stored, answer=dict(stored["answer"],
                                     epsilon="%d/%d" % (num + den, den)))
    tampered = W.Expected({"answers": {"homological": {op.key: wrong}}})
    assert not tampered.ok(op, outcome)
    record = run.Record("exact", 0.1, tampered.ok(op, outcome),
                        tampered.known_failure(op), op.key, outcome)
    assert run.verdict([record]) == (False, 1, 1)


def test_pass_count_depends_only_on_seconds():
    assert W.pass_count("chain", 30, 2) == 12
    assert W.pass_count("homological", 30, 2) == 2
    assert W.pass_count("homological", 15, 1) == 1
    assert W.pass_count("holonomy", 30, 2) == 3
    assert W.pass_count("holonomy", 5, 2) == 2


def test_ops_per_s_takes_each_slots_median_over_passes():
    # Two slots, three passes; a burst slows slot 0 in the second pass.
    times = [1.0, 2.0, 9.0, 2.5, 1.5, 1.5]
    records = [run.Record("exact", t, True, None, "k", {}) for t in times]
    assert run.ops_per_s(records, 2) == 2 / (1.5 + 2.0)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_a_synthetic_span_tree():
    # op [0, 10]: a [1, 7] holds b [2, 4] and c [5, 6]; a nested call of
    # a [8, 9] runs after it.
    clock = FakeClock([0, 1, 2, 4, 5, 6, 7, 8, 9, 10])
    tr = tracing.Tracer(clock)
    tr.begin_op(0)
    tr.enter("m.a")
    tr.enter("m.b")
    tr.exit()
    tr.enter("m.c")
    tr.exit()
    tr.exit()
    tr.enter("m.a")
    tr.exit()
    tr.end_op()
    stats = tr.stats
    assert stats["m.a"].calls == 2
    assert stats["m.a"].busy == 7          # 6 + 1
    assert stats["m.a"].self_s == 4        # (6 - 2 - 1) + 1
    assert stats["m.b"].self_s == 2 and stats["m.c"].self_s == 1
    assert stats["op"].self_s == 3         # 10 - 6 - 1
    assert tr.layer_self("m") == 7
    assert [s[3] for s in tr.spans] == [None, 0, 1, 1, 0]


def test_recursion_counts_busy_time_once():
    clock = FakeClock([0, 1, 3, 4])
    tr = tracing.Tracer(clock)
    tr.enter("m.f")
    tr.enter("m.f")
    tr.exit()
    tr.exit()
    assert tr.stats["m.f"].busy == 4 and tr.stats["m.f"].self_s == 4


def report(text):
    out, err = io.StringIO(), io.StringIO()
    code = W.cli_main(["report", "--json", "--mode", "exact", "--order", "9",
                     "--expr", text], out, err)
    assert code == 0, err.getvalue()
    return canonical_bytes(json.loads(out.getvalue()))


def test_tracing_changes_no_output():
    text = W.saddle_text(2, 6, "1+x")
    plain = report(text)
    tr = tracing.Tracer()
    tr.install(extra_modules=(W,))
    try:
        tr.begin_op(0)
        traced = report(text)
        tr.end_op()
    finally:
        tr.uninstall()
    assert traced == plain
    assert tr.value("cli.main.calls", 1) == 1
    assert tr.value("blowup.blowup_chain.calls", 1) == 2
    assert tr.value("normal_form.normalize.calls", 1) == 1
    assert report(text) == plain
    assert not hasattr(W.cli_main, "__wrapped__")


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, tracing.unit(name)) for name in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
