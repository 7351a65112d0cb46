"""Per-layer tracing installed from outside the program.

`Tracer.install()` replaces the public functions of `generate`, `textio`,
`trees`, `model`, `rules`, `solve` and `laws` with timing wrappers, and
`uninstall()` puts the originals back. The package's modules import with
`from .x import y`, so every module binding that holds a wrapped function is
replaced, not only the defining one: `treechoice.solve.nfd` and
`treechoice.laws.norm_opt` are the bindings their call sites use.

Each call opens a frame on a stack. A frame's self time is its duration
minus the durations of the wrapped calls nested directly in it. Frames of
layer boundaries are kept as spans (id, name, start, end, parent id, job);
the hot leaf functions (`conditional_expectation`, `combine_on_partition`,
`gamble_set_sum`, `check_a_consistency`, `GambleSet.__contains__`), called
up to millions of times per pass and calling nothing wrapped, are only
summed.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from functools import cached_property

import treechoice
from treechoice import cli, generate, laws, model, rules, solve, textio, trees

MODULES = (treechoice, cli, generate, laws, model, rules, solve, textio, trees)


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "norm_opt_seen")

    def __init__(self, name, start, span_id):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.norm_opt_seen = False


class Tracer:
    def __init__(self):
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.job = -1
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- frames ---------------------------------------------------------

    def _enter(self, name: str, keep: bool) -> _Frame:
        span_id = -1
        if keep:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name, time.perf_counter(), span_id)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self.seconds[frame.name] += duration
        self.self_seconds[frame.name] += duration - frame.child
        self.calls[frame.name] += 1
        parent_id = -1
        if self._stack:
            self._stack[-1].child += duration
            for outer in reversed(self._stack):
                if outer.span_id >= 0:
                    parent_id = outer.span_id
                    break
        if frame.span_id >= 0:
            self.spans.append(
                (frame.span_id, frame.name, frame.start, end, parent_id, self.job)
            )

    def inside(self, name: str) -> bool:
        return any(frame.name == name for frame in self._stack)

    def wrap(self, name, fn, keep=True, after=None):
        """`after(args, result)` updates counters once the call has returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        def function(name, fn, keep=True, after=None):
            self._replace_everywhere(fn, self.wrap(name, fn, keep, after))

        function("generate.random_consistent_tree", generate.random_consistent_tree)
        function("generate.random_gamble_instance", generate.random_gamble_instance)
        function("textio.parse_tree_file", textio.parse_tree_file)
        function("textio.parse_context_file", textio.parse_context_file)
        # the report builders the CLI calls; their internal calls to each
        # other go through textio's own bindings and are not wrapped twice
        for builder in ("solution_json", "gamble_set_json", "jsonable", "instance_json"):
            self._set(cli, builder, self.wrap("textio.report_json", getattr(cli, builder)))
        function("cli.run_command", cli.run_command)
        function("trees.validate", trees.validate)
        function("trees.nfd", trees.nfd)
        function("trees.gamb", trees.gamb)
        function("trees.restrict_solution", trees.restrict_solution)
        function("model.combine_on_partition", model.combine_on_partition, keep=False)
        function("model.gamble_set_sum", model.gamble_set_sum, keep=False)
        function("model.check_a_consistency", model.check_a_consistency, keep=False)
        function(
            "rules.conditional_expectation", rules.conditional_expectation, keep=False
        )
        function("solve.norm_opt", solve.norm_opt, after=self._after_norm_opt)
        function("solve.back_opt", solve.back_opt, after=self._after_back_opt)
        function(
            "laws.check_subtree_perfectness",
            laws.check_subtree_perfectness,
            after=self._after_perfectness,
        )
        function("laws.falsify_property", laws.falsify_property)
        function("laws.shrink_violation", laws.shrink_violation)
        function(
            "laws.check_property_instance",
            laws.check_property_instance,
            after=self._after_instance,
        )
        # after the generic pass: laws.norm_opt now holds the solve.norm_opt
        # wrapper, which per-node calls of a perfectness check wrap once more
        self._set(laws, "norm_opt", self._perfectness_node(laws.norm_opt))

        contains = model.GambleSet.__contains__
        self._set(
            model.GambleSet,
            "__contains__",
            self.wrap("model.gambleset_contains", contains, keep=False),
        )
        gamble = vars(trees.NormalFormDecision)["gamble"]
        rewrapped = cached_property(self.wrap("trees.strategy_gamble", gamble.func))
        rewrapped.__set_name__(trees.NormalFormDecision, "gamble")
        self._set(trees.NormalFormDecision, "gamble", rewrapped)

        select = rules.ChoiceRule.select
        tracer = self

        @functools.wraps(select)
        def traced_select(rule, gambles, given):
            name = f"rules.select.{rule.name}"
            frame = tracer._enter(name, True)
            try:
                chosen = select(rule, gambles, given)
            finally:
                tracer._exit(frame)
            tracer.counts[name + ".gambles_in"] += len(gambles)
            tracer.counts[name + ".kept"] += len(chosen)
            return chosen

        self._set(rules.ChoiceRule, "select", traced_select)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- counters read from the program's own reports --------------------

    def _after_norm_opt(self, args, report) -> None:
        self.counts["trees.nfd.strategies"] += report.stats["nfd_count"]
        self.counts["trees.gamb.gambles"] += report.stats["gamble_count"]

    def _after_back_opt(self, args, report) -> None:
        for stage in report.stats["stages"]:
            self.counts["solve.back_opt.candidates"] += stage["candidates"]
            self.counts["solve.back_opt.kept"] += stage["kept"]

    def _after_perfectness(self, args, report) -> None:
        self.counts["laws.perfect.nodes_checked"] += len(report.comparisons)

    def _after_instance(self, args, check) -> None:
        self.counts["laws.check_property_instance.vacuous"] += int(check.vacuous)
        if self.inside("laws.shrink_violation"):
            self.counts["laws.shrink_violation.steps"] += 1

    def _perfectness_node(self, norm_opt):
        """Every norm_opt call of a perfectness check after its first (the
        root solve) solves one reached node's subtree."""

        @functools.wraps(norm_opt)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None or parent.name != "laws.check_subtree_perfectness":
                return norm_opt(*args, **kwargs)
            if not parent.norm_opt_seen:
                parent.norm_opt_seen = True
                return norm_opt(*args, **kwargs)
            frame = self._enter("laws.perfect.node_norm_opt", True)
            try:
                return norm_opt(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

