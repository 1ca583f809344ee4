"""Tests of the benchmark's own machinery (not of the library).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run as bench  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Installation, Span, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def replay(events, keep_spans_s=None):
    """Drive a tracer through (time, name or None for exit) events."""
    clock = FakeClock()
    tracer = Tracer(clock=clock, keep_spans_s=keep_spans_s)
    for at, name in events:
        clock.now = at
        if name is None:
            tracer.exit()
        else:
            tracer.enter(name)
    return tracer


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # a[0,10] contains b[1,4] (which contains d[2,3]) and c[5,6]
        tracer = replay([(0, "a"), (1, "b"), (2, "d"), (3, None), (4, None),
                         (5, "c"), (6, None), (10, None)], keep_spans_s=0)
        totals = {name: (total, self_s) for name, (_, total, self_s) in tracer.stats.items()}
        self.assertEqual(totals, {"a": (10, 6), "b": (3, 2), "c": (1, 1), "d": (1, 1)})
        self.assertEqual(sorted(tracer.spans), [
            Span(1, "a", 0, 10, None), Span(2, "b", 1, 4, 1),
            Span(3, "d", 2, 3, 2), Span(4, "c", 5, 6, 1)])

    def test_recursion_counts_total_once(self):
        # f[0,10] calls g[1,2] and f[3,8]; the inner f calls g[4,6]
        tracer = replay([(0, "f"), (1, "g"), (2, None), (3, "f"), (4, "g"), (6, None),
                         (8, None), (10, None)])
        _, total, self_s = tracer.stats["f"]
        self.assertEqual(total, 10)
        self.assertEqual(self_s, (10 - 1 - 5) + (5 - 2))
        self.assertEqual(tracer.stats["g"][1:], [3, 3])

    def test_observer_time_is_not_self_time(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def slow_observer(args, kwargs, result):
            clock.now += 5

        def inner():
            clock.now += 1

        traced = tracer.wrap("inner", inner)
        tracer.observers["inner"] = slow_observer
        tracer.enter("outer")
        traced()
        clock.now += 2
        tracer.exit()
        self.assertEqual(tracer.stats["outer"], [0, 8, 2])
        self.assertEqual(tracer.stats["inner"], [1, 1, 1])

    def test_short_spans_are_not_kept(self):
        tracer = replay([(0, "a"), (1, "b"), (1.001, None), (5, None)], keep_spans_s=0.01)
        self.assertEqual([s.name for s in tracer.spans], ["a"])


CORE = '''
def f(x):
    return helper(x) + 1

def helper(x):
    return 2 * x

def gen(n):
    yield from range(n)

class K:
    def m(self):
        return f(1)

    alias = m

    @property
    def p(self):
        return 7

    @classmethod
    def make(cls):
        return cls()

    def __mul__(self, other):
        return 0
'''

USER = '''
from fakepkg.core import f, gen
TABLE = {"f": f}
'''


def fake_package(extra_user=""):
    """fakepkg.core defines the callables; fakepkg.user rebinds some of them."""
    modules = {}
    for name, code in (("fakepkg", ""), ("fakepkg.core", CORE), ("fakepkg.user", USER + extra_user)):
        module = types.ModuleType(name)
        sys.modules[name] = module
        exec(code, module.__dict__)
        modules[name] = module
    return modules


def drop_fake_package():
    for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
        sys.modules.pop(name, None)


class InstallationTest(unittest.TestCase):
    def tearDown(self):
        drop_fake_package()

    def test_every_site_wrapped_then_restored(self):
        mods = fake_package()
        core, user = mods["fakepkg.core"], mods["fakepkg.user"]
        before = {"core.f": core.f, "user.f": user.f, "table": user.TABLE["f"],
                  "m": vars(core.K)["m"], "alias": vars(core.K)["alias"],
                  "p": vars(core.K)["p"], "make": vars(core.K)["make"],
                  "mul": vars(core.K)["__mul__"], "helper": core.helper, "gen": user.gen}
        tracer = Tracer()
        installed = Installation(tracer, "fakepkg", {"core": core})
        self.assertIsNot(user.f, before["user.f"])
        self.assertIs(user.f, core.f)
        self.assertIs(user.TABLE["f"], core.f)
        self.assertIs(vars(core.K)["alias"], vars(core.K)["m"])
        self.assertEqual(installed.unwrapped_sites(), [])
        k = core.K.make()
        self.assertEqual((k.m(), k.alias(), k.p, list(user.gen(3))), (3, 3, 7, [0, 1, 2]))
        self.assertEqual(tracer.stats["core.K.m"][0], 2)
        self.assertEqual(tracer.stats["core.f"][0], 2)
        self.assertEqual(tracer.stats["core.helper"][0], 2)
        self.assertEqual(tracer.stats["core.K.p"][0], 1)
        self.assertEqual(tracer.stats["core.gen"][0], 1)
        self.assertNotIn("core.K.__mul__", tracer.stats)  # only Polynomial.__mul__ is traced
        installed.restore()
        after = {"core.f": core.f, "user.f": user.f, "table": user.TABLE["f"],
                 "m": vars(core.K)["m"], "alias": vars(core.K)["alias"],
                 "p": vars(core.K)["p"], "make": vars(core.K)["make"],
                 "mul": vars(core.K)["__mul__"], "helper": core.helper, "gen": user.gen}
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_unpatchable_site_fails_and_restores(self):
        mods = fake_package(extra_user="FROZEN = (f,)\n")
        core = mods["fakepkg.core"]
        original = core.f
        with self.assertRaisesRegex(RuntimeError, r"fakepkg.user.FROZEN\[0\]"):
            Installation(Tracer(), "fakepkg", {"core": core})
        self.assertIs(core.f, original)
        self.assertIs(mods["fakepkg.user"].f, original)

    def test_library_rebindings_are_covered(self):
        import apolarity.apolar as apolar
        import apolarity.enumeration as enumeration
        import apolarity.macaulay as macaulay
        import apolarity.poly as poly
        import apolarity.witness as witness

        originals = {"contract": poly.contract, "is_apolar": apolar.is_apolar,
                     "macaulay_bound": macaulay.macaulay_bound}
        rebinders = {"contract": (apolar, witness), "is_apolar": (witness,),
                     "macaulay_bound": (enumeration,)}
        installed = Installation(Tracer(), "apolarity", layers.traced_modules())
        try:
            for name, modules in rebinders.items():
                for module in modules:
                    bound = getattr(module, name)
                    self.assertIsNot(bound, originals[name], f"{module.__name__}.{name}")
                    self.assertIs(bound.__wrapped__, originals[name])
        finally:
            installed.restore()
        for name, modules in rebinders.items():
            for module in modules:
                self.assertIs(getattr(module, name), originals[name])


def canned(report):
    return subprocess.CompletedProcess([], 0, stdout=json.dumps(report) + "\n", stderr="")


class FailureCountingTest(unittest.TestCase):
    def make_run(self, items, digests):
        workload = workloads.Workload("fake", items, [], lambda stdout: [], False)
        expected = {"seed": None, "items": digests, "cli": None}
        return bench.Run(workload, 0, expected, 0)

    def test_forced_digest_mismatch_is_a_failed_item(self):
        items = [workloads.Item(name, None, None, None) for name in ("good", "bad")]
        run = self.make_run(items, {"good": "aaa", "bad": "bbb"})
        report = {"wall_s": 1.0, "rss_mib": 1.0, "items": [
            {"name": "good", "digest": "aaa", "problems": []},
            {"name": "bad", "digest": "ccc", "problems": []}]}
        run.python = lambda argv: (1.0, canned(report))
        self.assertIsNotNone(run.pass_())
        self.assertEqual((run.attempted, run.failed), (2, 1))
        self.assertIn("bad: digest ccc != recorded bbb", run.problems[0])

    def test_times_are_scaled_to_the_reference_speed(self):
        run = self.make_run([], {})
        run.reference = lambda: 2 * bench.REFERENCE_S  # a host at half the reference speed
        run.setup = lambda: 0.2
        run.pass_ = lambda: {"wall_s": 4.0, "rss_mib": 30.0}
        run.cli = lambda: 1.0
        samples = bench.timed(run)
        self.assertEqual({name: set(values) for name, values in samples.items()},
                         {"setup_s": {0.1}, "wall_s": {2.0}, "cli_s": {0.5}, "peak_rss_mib": {30.0}})
        self.assertEqual(len(samples["wall_s"]), bench.MIN_ROUNDS)

    def test_crashed_worker_fails_every_item(self):
        items = [workloads.Item(name, None, None, None) for name in ("a", "b", "c")]
        run = self.make_run(items, {})
        crashed = subprocess.CompletedProcess([], 1, stdout="", stderr="Boom")
        run.python = lambda argv: (1.0, crashed)
        self.assertIsNone(run.pass_())
        self.assertEqual((run.attempted, run.failed), (3, 3))

    def test_raising_and_wrong_items_are_reported_by_the_worker(self):
        def boom():
            raise ValueError("no")

        items = [
            workloads.Item("ok", lambda: 1, lambda r: r, lambda r, _: []),
            workloads.Item("raises", boom, lambda r: r, lambda r, _: []),
            workloads.Item("wrong", lambda: 2, lambda r: r, lambda r, _: ["2 is wrong"]),
        ]
        workload = workloads.Workload("fake", items, [], lambda stdout: [], False)
        with open("/dev/null", "w") as sink:
            stderr, sys.stderr = sys.stderr, sink
            try:
                report = worker.run_pass(workload, trace=False)
            finally:
                sys.stderr = stderr
        problems = {item["name"]: item["problems"] for item in report["items"]}
        self.assertEqual(problems["ok"], [])
        self.assertIn("ValueError: no", problems["raises"][0])
        self.assertEqual(problems["wrong"], ["2 is wrong"])


class TracedRoundsTest(unittest.TestCase):
    def make_run(self, workload):
        return bench.Run(workloads.Workload(workload, [], [], lambda stdout: [], False), 0, None, 0)

    def test_broken_predicted_zero_is_a_failed_item(self):
        values = dict.fromkeys(layers.METRICS, 0)
        run = self.make_run("verifier")
        bench.check_rounds(run, [dict(values, **{"macaulay.macaulay_bound.calls": 5})])
        self.assertEqual((run.attempted, run.failed), (2, 0))
        run = self.make_run("filtration")
        bench.check_rounds(run, [dict(values, **{"macaulay.macaulay_bound.calls": 5})])
        self.assertEqual((run.attempted, run.failed), (2, 1))
        self.assertEqual(run.problems, ["predicted zero macaulay.macaulay_bound.calls is 5"])

    def test_counts_differing_between_rounds_are_a_failed_item(self):
        values = dict.fromkeys(layers.METRICS, 0)
        run = self.make_run("generic")
        bench.check_rounds(run, [dict(values, **{"poly.contract.calls": 3}),
                                 dict(values, **{"poly.contract.calls": 4})])
        self.assertEqual((run.attempted, run.failed), (2, 1))


class GenericChecksTest(unittest.TestCase):
    """The generic workload's checks catch outputs that are wrong but plausible."""

    def setUp(self):
        from apolarity import apolar
        from apolarity.poly import parse

        self.f = parse("x1^4 + x1^2*x2^2 + x2^3 + x1", 2)
        self.pair = (apolar.diff_space(self.f), apolar.annihilator_generators(self.f, 5))

    def problems(self, space, kernel):
        results = {"twin": self.pair}
        return workloads._check_pair((space, kernel), results, "twin", self.f, 4)

    def test_right_output_passes(self):
        self.assertEqual(self.problems(*self.pair), [])

    def test_generator_that_does_not_annihilate_fails(self):
        from apolarity.poly import DUAL, Polynomial

        space, kernel = self.pair
        wrong = kernel[:-1] + [Polynomial(2, {(2, 0): 1, **kernel[-1].terms}, DUAL)]
        self.assertEqual(self.problems(space, wrong), ["a kernel generator does not annihilate f"])

    def test_rows_of_a_different_space_fail(self):
        from apolarity import apolar
        from apolarity.poly import parse

        other = apolar.diff_space(parse("x1^4 + x2^4 + x1*x2", 2))
        self.assertIn("the diff_space rows do not span a space closed under contraction with f",
                      self.problems(other, self.pair[1]))


class CatalogueTest(unittest.TestCase):
    def test_per_layer_metrics_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["per_layer"]], layers.METRICS)
        self.assertEqual([m["unit"] for m in spec["per_layer"]],
                         [layers.unit(n) for n in layers.METRICS])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.NAMES))


if __name__ == "__main__":
    unittest.main()
