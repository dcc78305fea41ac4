"""AST lint engine tests: one positive and one negative fixture per
rule, the v2 whole-program layer (call graph, dataflow, cache), seeded
defects the v1 heuristics missed, suppression directives and their edge
cases, rule selection, report output, and the repo-wide gate itself.
R7 (shard isolation) fixtures live with the subsystem they guard, in
``tests/test_shard.py``.  R8 and R9 are retired; their classes here pin
the structural checks that replaced them.
"""

from __future__ import annotations

import inspect
import json
import textwrap
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import repro.shard as shard_pkg
import repro.shard.worker as worker_mod
from repro.bounds import formulas
from repro.em.machine import Machine
from repro.lint import (
    ALGORITHM_SUBSYSTEMS,
    EM_LAYER_SUBSYSTEMS,
    CallGraph,
    LintFinding,
    LintReport,
    ModuleContext,
    ProjectIndex,
    all_rules,
    baseline_delta,
    compute_facts,
    get_rules,
    git_changed_files,
    lint_paths,
    lint_source,
    summarize_module,
)
from repro.obs import default_budgets_path
from repro.obs.solvers import SOLVERS
from repro.shard import PROTOCOL, InProcTransport, Message, ShardWorker
from repro.shard.protocol import ERROR

ALG_PATH = "repro/alg/fixture.py"


def _lint(src: str, relpath: str = ALG_PATH, rules=None):
    return lint_source(textwrap.dedent(src), relpath, rules)


def _active(src: str, relpath: str = ALG_PATH, rules=None):
    return _lint(src, relpath, rules)[0]


def _rule_ids(findings):
    return [f.rule for f in findings]


def _project_findings(files: dict, rule_id: str):
    """Run one project rule over a multi-module fixture corpus."""
    summaries = [
        summarize_module(
            ModuleContext.from_source(textwrap.dedent(src), rel)
        )
        for rel, src in files.items()
    ]
    project = ProjectIndex(summaries)
    facts = compute_facts(project, CallGraph(project))
    (rule,) = get_rules([rule_id])
    return sorted(rule.check_project(facts))


class TestRegistry:
    def test_all_seven_rules_registered(self):
        # R8 (shard protocol) and R9 (solver registry) are retired: the
        # protocol is one table both ends consume, a solver holds its
        # formula callable, and Disk.phase rejects bad labels itself.
        assert [r.rule_id for r in all_rules()] == [
            "R1", "R2", "R3", "R4", "R5", "R6", "R7",
        ]

    def test_get_rules_subset_and_case(self):
        assert [r.rule_id for r in get_rules(["r3", "R1"])] == ["R3", "R1"]

    def test_get_rules_unknown_raises(self):
        with pytest.raises(KeyError, match="R99"):
            get_rules(["R99"])

    def test_rules_carry_rationales(self):
        for rule in all_rules():
            assert rule.title and len(rule.rationale) > 40

    def test_project_rules_are_marked(self):
        scopes = {r.rule_id: r.scope for r in all_rules()}
        assert scopes["R3"] == scopes["R5"] == "project"
        assert scopes["R1"] == scopes["R4"] == "module"

    def test_layer_constants(self):
        assert "alg" in ALGORITHM_SUBSYSTEMS and "em" in EM_LAYER_SUBSYSTEMS


class TestR1PrivateInternals:
    POSITIVE = """
        def f(machine):
            return len(machine.disk._blocks)
        """

    def test_positive(self):
        (finding,) = _active(self.POSITIVE)
        assert finding.rule == "R1"
        assert "_blocks" in finding.message

    def test_negative_in_em_layer(self):
        assert not _active(self.POSITIVE, "repro/em/helper.py")

    def test_negative_in_obs_layer(self):
        assert not _active(self.POSITIVE, "repro/obs/helper.py")

    def test_negative_self_attribute(self):
        src = """
            class Thing:
                def f(self):
                    return self._peak
            """
        assert not _active(src)

    def test_flags_accountant_internals(self):
        src = """
            def f(machine):
                machine.memory._in_use = 0
            """
        assert _rule_ids(_active(src)) == ["R1"]


class TestR2UncountedEscapes:
    def test_positive_peek(self):
        (finding,) = _active("def f(m):\n    return m.disk.peek(0)\n")
        assert finding.rule == "R2" and "peek" in finding.message

    def test_positive_uncounted(self):
        src = """
            def f(machine):
                with machine.uncounted():
                    pass
            """
        assert _rule_ids(_active(src)) == ["R2"]

    def test_positive_default_to_numpy(self):
        (finding,) = _active("def f(file):\n    return file.to_numpy()\n")
        assert finding.rule == "R2" and "counted=True" in finding.message

    def test_negative_counted_to_numpy(self):
        assert not _active("def f(file):\n    return file.to_numpy(counted=True)\n")

    def test_negative_outside_algorithm_layer(self):
        src = "def f(m):\n    return m.disk.peek(0)\n"
        assert not _active(src, "repro/obs/probe.py")
        assert not _active(src, "repro/workloads/gen.py")


class TestR3RawComparisons:
    def test_positive_np_sort_on_records(self):
        src = """
            def f(records):
                return np.sort(composite(records))
            """
        (finding,) = _active(src)
        assert finding.rule == "R3" and "np.sort" in finding.message

    def test_positive_sort_records_helper(self):
        # R6 (kernel bypass) fires on the same call; check R3 is there.
        findings = _active("def f(r):\n    return sort_records(r)\n")
        assert sorted(_rule_ids(findings)) == ["R3", "R6"]

    def test_positive_raw_compare_on_keys(self):
        src = """
            def f(a, b):
                return a["key"] < b["key"]
            """
        (finding,) = _active(src)
        assert finding.rule == "R3" and "raw order comparison" in finding.message

    def test_negative_charged_function(self):
        src = """
            def f(machine, records):
                cmp_sort(machine, len(records))
                return np.sort(composite(records))
            """
        assert not _active(src)

    def test_negative_non_record_sort(self):
        # Index bookkeeping is free in the model; only record
        # comparisons are counted.
        assert not _active("def f(idx):\n    return np.sort(idx)\n")

    def test_negative_outside_algorithm_layer(self):
        src = "def f(r):\n    return sort_records(r)\n"
        assert not _active(src, "repro/workloads/gen.py")


class TestR3Interprocedural:
    """The dataflow upgrades: what v1 could not see."""

    def test_helper_covered_by_charging_caller(self):
        # v1 needed a suppression here; v2 clears the pure helper
        # because its only caller charges.
        src = """
            def helper(records):
                return np.sort(composite(records))

            def caller(machine, records):
                cmp_sort(machine, len(records))
                return helper(records)
            """
        assert not _active(src)

    def test_transitive_charge_through_callee(self):
        src = """
            def charge(machine, n):
                cmp_sort(machine, n)

            def f(machine, records):
                charge(machine, len(records))
                return np.sort(composite(records))
            """
        assert not _active(src)

    def test_seeded_defect_local_shadow_does_not_charge(self):
        # v1 false negative: a local `cmp_sort` shadow excused the sink
        # by name.  v2 resolves the call to the shadow, sees it never
        # reaches the machine, and flags the sink.
        src = """
            def cmp_sort(machine, n):
                return n  # never touches the machine

            def f(machine, records):
                cmp_sort(machine, len(records))
                return np.sort(composite(records))
            """
        (finding,) = _active(src)
        assert finding.rule == "R3"

    def test_uncharged_helper_with_uncharged_caller_still_flagged(self):
        src = """
            def helper(records):
                return np.sort(composite(records))

            def caller(records):
                return helper(records)
            """
        findings = _active(src)
        assert _rule_ids(findings) == ["R3"]


class TestR4UnseededRng:
    def test_positive_stdlib_random(self):
        (finding,) = _active("def f():\n    return random.random()\n")
        assert finding.rule == "R4" and "global RNG" in finding.message

    def test_positive_legacy_np_random(self):
        (finding,) = _active("def f():\n    return np.random.rand(3)\n")
        assert finding.rule == "R4"

    def test_positive_unseeded_default_rng(self):
        (finding,) = _active("def f():\n    return np.random.default_rng()\n")
        assert "seed" in finding.message

    def test_negative_seeded_default_rng(self):
        assert not _active("def f(seed):\n    return np.random.default_rng(seed)\n")

    def test_negative_seeded_random_class(self):
        assert not _active("def f(seed):\n    return random.Random(seed)\n")

    def test_applies_everywhere_in_package(self):
        # Unlike R2/R3, reproducibility is global — em and obs too.
        src = "def f():\n    return np.random.rand()\n"
        assert _rule_ids(_active(src, "repro/em/helper.py")) == ["R4"]
        assert _rule_ids(_active(src, "repro/obs/helper.py")) == ["R4"]

    def test_applies_to_scripts_and_benchmarks(self):
        # Experiment drivers shape recorded results just as much as the
        # package; the default lint set includes both trees.
        src = "def f():\n    return np.random.rand()\n"
        assert _rule_ids(_active(src, "scripts/gen_data.py")) == ["R4"]
        assert _rule_ids(_active(src, "benchmarks/test_bench.py")) == ["R4"]

    def test_default_lint_set_includes_scripts_and_benchmarks(self):
        report = lint_paths()
        # the repo gate actually walked files outside src/repro
        prefixes = {f.split("/")[0] for f in _repo_file_set(report)}
        assert {"scripts", "benchmarks"} <= prefixes


def _repo_file_set(report):
    # files aren't carried per-path in the report; re-derive from the
    # default discovery to keep this assertion independent.
    from repro.lint import default_lint_paths, default_root, iter_python_files
    root = default_root()
    from repro.lint.runner import _relpath
    return [
        _relpath(f, root)
        for f in iter_python_files(default_lint_paths(root))
    ]


class TestR5LeaseLifecycle:
    def test_positive_unprotected_assignment(self):
        src = """
            def f(machine):
                lease = machine.memory.lease(8, "x")
                work()
                lease.release()
            """
        (finding,) = _active(src)
        assert finding.rule == "R5" and "finally" in finding.message

    def test_positive_bare_call(self):
        (finding,) = _active("def f(m):\n    m.memory.lease(8, 'x')\n")
        assert finding.rule == "R5"

    def test_negative_with_statement(self):
        src = """
            def f(machine):
                with machine.memory.lease(8, "x"):
                    work()
            """
        assert not _active(src)

    def test_negative_try_finally(self):
        src = """
            def f(machine):
                lease = machine.memory.lease(8, "x")
                try:
                    work()
                finally:
                    lease.release()
            """
        assert not _active(src)

    def test_negative_later_with(self):
        src = """
            def f(machine):
                lease = machine.memory.lease(8, "x")
                with lease:
                    work()
            """
        assert not _active(src)

    def test_negative_attribute_storage_with_release(self):
        src = """
            class Index:
                def __init__(self, machine):
                    self._lease = machine.memory.lease(8, "idx")

                def close(self):
                    self._lease.release()
            """
        assert not _active(src)

    def test_negative_in_tests(self):
        src = "def f(m):\n    m.memory.lease(8, 'x')\n"
        assert not _active(src, "repro/em/tests/test_x.py")


class TestR5Interprocedural:
    """v2: the lease is followed across functions and classes."""

    def test_seeded_defect_write_only_attribute_leaks(self):
        # v1 exempted every attribute store; v2 demands the class (or a
        # relative) provably release the attribute.
        src = """
            class Index:
                def __init__(self, machine):
                    self._lease = machine.memory.lease(8, "idx")
            """
        (finding,) = _active(src)
        assert finding.rule == "R5" and "write-only" in finding.message

    def test_attribute_released_in_subclass_is_clean(self):
        src = """
            class Base:
                def __init__(self, machine):
                    self._lease = machine.memory.lease(8, "idx")

            class Child(Base):
                def close(self):
                    self._lease.release()
            """
        assert not _active(src)

    def test_lease_returner_call_site_discard_flagged(self):
        src = """
            def make_lease(machine):
                return machine.memory.lease(8, "x")

            def bad(machine):
                make_lease(machine)
            """
        (finding,) = _active(src)
        assert finding.rule == "R5"
        assert "make_lease" in finding.message

    def test_lease_returner_call_site_with_is_clean(self):
        src = """
            def make_lease(machine):
                return machine.memory.lease(8, "x")

            def good(machine):
                with make_lease(machine):
                    work()
            """
        assert not _active(src)

    def test_wrapper_propagates_returner_obligation(self):
        src = """
            def make_lease(machine):
                return machine.memory.lease(8, "x")

            def wrapper(machine):
                return make_lease(machine)

            def bad(machine):
                lease = wrapper(machine)
                work()
            """
        (finding,) = _active(src)
        assert finding.rule == "R5" and "wrapper" in finding.message

    def test_passed_to_releasing_callee_is_clean(self):
        src = """
            def consume(lease):
                try:
                    work()
                finally:
                    lease.release()

            def f(machine):
                held = machine.memory.lease(8, "x")
                consume(held)
            """
        assert not _active(src)

    def test_passed_to_non_releasing_callee_flagged(self):
        src = """
            def consume(lease):
                return lease.size

            def f(machine):
                held = machine.memory.lease(8, "x")
                consume(held)
            """
        (finding,) = _active(src)
        assert finding.rule == "R5" and "consume" in finding.message


class TestR6KernelBypass:
    def test_positive_concat_records(self):
        (finding,) = _active(
            "def f(m, parts):\n    return concat_records(parts)\n",
            rules=get_rules(["R6"]),
        )
        assert finding.rule == "R6" and "machine.kernel.concat" in finding.message

    def test_positive_sort_records(self):
        (finding,) = _active(
            "def f(m, r):\n    return sort_records(r)\n", rules=get_rules(["R6"])
        )
        assert "sort_by_composite" in finding.message

    def test_positive_record_argpartition(self):
        (finding,) = _active(
            "def f(m, r, k):\n"
            "    return np.argpartition(composite(r), k)\n",
            rules=get_rules(["R6"]),
        )
        assert "rank_order" in finding.message

    def test_negative_plain_argpartition(self):
        # Index arithmetic is not record movement — no kernel needed.
        assert not _active(
            "def f(m, idx, k):\n    return np.argpartition(idx, k)\n",
            rules=get_rules(["R6"]),
        )

    def test_negative_kernel_dispatch(self):
        assert not _active(
            "def f(m, parts):\n    return m.kernel.concat(parts)\n",
            rules=get_rules(["R6"]),
        )

    def test_exempt_outside_algorithm_layer(self):
        src = "def f(r):\n    return sort_records(r)\n"
        assert not _active(src, "repro/em/kernels/numpy_v1.py", rules=get_rules(["R6"]))
        assert not _active(src, "repro/em/records.py", rules=get_rules(["R6"]))
        assert not _active(src, "tests/test_x.py", rules=get_rules(["R6"]))


class TestR8ShardProtocol:
    """R8 is retired: the protocol it cross-checked across the router,
    the worker's dispatch chain and a docstring table is now the one
    :data:`~repro.shard.protocol.PROTOCOL` table.  These pin the
    invariants R8 policed against the code that now holds them."""

    @staticmethod
    def _worker():
        coord = Machine(memory=512, block=16)
        link = InProcTransport(0)
        worker = ShardWorker(0, link, memory=512, block=16)
        return coord, worker, link.coordinator_end(coord)

    @staticmethod
    def _ask(worker, end, kind, payload=None):
        end.send(Message(kind, payload))
        worker.step()
        return end.recv()

    def test_conforming_protocol_is_clean(self):
        # Every row names its own ShardWorker method, and the shard
        # modules lint clean under the surviving rules.
        handlers = [r.handler for r in PROTOCOL.values()]
        assert len(set(handlers)) == len(handlers)
        for request in PROTOCOL.values():
            assert callable(getattr(ShardWorker, request.handler)), request
        report = lint_paths([Path(shard_pkg.__file__).parent])
        assert report.findings == [], "\n" + report.render()

    def test_dead_handler_arm_flagged(self):
        # The worker has no dispatch arm outside the table: a kind with
        # no row, delivered past the coordinator's check, replies error.
        coord, worker, end = self._worker()
        reply = self._ask(worker, end, "ghost")
        assert reply.kind == ERROR
        assert "unknown request kind 'ghost'" in reply.payload
        assert self._ask(worker, end, "shutdown").kind == "bye"
        coord.close()

    def test_doc_table_reply_mismatch_flagged(self, monkeypatch):
        # A handler returns only the payload; the reply kind comes from
        # the table, so a handler cannot answer with another kind.
        monkeypatch.setitem(worker_mod._HANDLERS, "ingest",
                            lambda self, payload: ("done", 1))
        coord, worker, end = self._worker()
        reply = self._ask(worker, end, "ingest")
        assert reply.kind == PROTOCOL["ingest"].reply == "ok"
        assert reply.payload == ("done", 1)
        assert self._ask(worker, end, "shutdown").kind == "bye"
        coord.close()
        # The documented table is rendered from PROTOCOL: each row's
        # reply column in docs/API.md is the table's reply kind.
        docs = Path(__file__).resolve().parents[1] / "docs"
        api = (docs / "API.md").read_text()
        rows = {
            line.split("|")[1].strip(): line.split("|")[3].strip()
            for line in api.splitlines()
            if line.startswith("| `") and "ShardWorker." in line
        }
        assert rows == {f"`{k}`": f"`{r.reply}`" for k, r in PROTOCOL.items()}


class TestR9RegistryConsistency:
    """R9 is retired: a solver holds its formula callable, budgets.json
    labels come from that callable, and ``Disk.phase`` rejects bad
    labels itself.  These pin the invariants R9 policed."""

    def test_phase_label_with_slash_flagged(self):
        m = Machine(memory=512, block=16)
        with pytest.raises(ValueError, match="without '/'"):
            with m.phase("partition/distribute"):
                pass
        m.close()

    def test_phase_label_plain_is_clean(self):
        src = """
            def f(machine):
                with machine.phase("distribute"):
                    pass
            """
        assert not _active(src)
        m = Machine(memory=512, block=16)
        with m.phase("distribute"):
            assert m.disk.phase_path == "distribute"
        m.close()

    def test_unknown_formula_reference_flagged(self):
        # A solver's formula is a repro.bounds.formulas function and its
        # args bind to that function's parameters; args that do not
        # bind fail when the bound is evaluated.
        for solver in SOLVERS.values():
            assert getattr(formulas, solver.formula.__name__) is solver.formula
            inspect.signature(solver.formula).bind(*solver.args)
            assert set(solver.args) <= set(solver.defaults), solver.name
        sort = SOLVERS["sort"]
        with pytest.raises(TypeError):
            replace(sort, args=sort.args[:-1]).bound(sort.defaults)

    def test_repo_triangle_holds(self):
        # SOLVERS <-> benchmarks/budgets.json <-> bounds.formulas: every
        # solver has an envelope labeled with its formula's own name,
        # and every envelope has a solver.
        doc = json.loads(default_budgets_path().read_text())
        labels = {name: e["formula"] for name, e in doc["budgets"].items()}
        assert labels == {n: s.formula.__name__ for n, s in SOLVERS.items()}


class TestCallGraphGolden:
    def test_resolution_rate_at_least_95_percent(self):
        report = lint_paths()
        assert report.callgraph["call_sites"] > 3000
        assert report.callgraph["resolution_rate"] >= 0.95, report.callgraph

    def test_known_edges_resolve(self):
        from repro.lint import default_root, iter_python_files
        from repro.lint.runner import _relpath, default_lint_paths

        root = default_root()
        summaries = []
        for f in iter_python_files(default_lint_paths(root)):
            summaries.append(
                summarize_module(
                    ModuleContext.from_source(f.read_text(), _relpath(f, root))
                )
            )
        project = ProjectIndex(summaries, root=root)
        graph = CallGraph(project)
        # selection's helper is called by the mo5 pipeline
        callers = graph.callers("repro.alg.selection._group_medians")
        assert any("median_of_five_file" in c for c in callers)
        # cmp_median5 resolves into the em comparisons module
        callees = graph.callees(
            "repro.alg.selection.median_of_five_file"
        )
        assert "repro.em.comparisons.cmp_median5" in callees


class TestSuppression:
    def test_same_line_directive_suppresses(self):
        active, suppressed = _lint(
            "def f():\n    return np.random.rand()  # emlint: disable=R4\n"
        )
        assert not active
        assert _rule_ids(suppressed) == ["R4"]

    def test_bare_disable_suppresses_all_rules(self):
        active, suppressed = _lint(
            "def f(m):\n    return m.disk.peek(0)  # emlint: disable\n"
        )
        assert not active and _rule_ids(suppressed) == ["R2"]

    def test_directive_for_other_rule_does_not_suppress(self):
        active, suppressed = _lint(
            "def f():\n    return np.random.rand()  # emlint: disable=R1\n"
        )
        assert _rule_ids(active) == ["R4"] and not suppressed

    def test_multi_rule_directive(self):
        active, suppressed = _lint(
            "def f(m):\n"
            "    return sort_records(m.file.to_numpy())"
            "  # emlint: disable=R2, R3, R6\n"
        )
        assert not active
        assert sorted(_rule_ids(suppressed)) == ["R2", "R3", "R6"]

    def test_project_rule_findings_respect_suppressions(self):
        active, suppressed = _lint(
            "def f(machine):\n"
            '    lease = machine.memory.lease(8, "x")  # emlint: disable=R5\n'
            "    return 1\n"
        )
        assert not active and _rule_ids(suppressed) == ["R5"]


class TestSuppressionEdgeCases:
    """Directives must be *comments* — not string content — and must
    tolerate odd spelling."""

    def test_directive_inside_string_is_not_a_suppression(self):
        active, suppressed = _lint(
            'def f():\n'
            '    return np.random.rand(), "# emlint: disable=R4"\n'
        )
        assert _rule_ids(active) == ["R4"] and not suppressed

    def test_directive_inside_fstring_is_not_a_suppression(self):
        active, suppressed = _lint(
            'def f(x):\n'
            '    return np.random.rand(), f"{x} # emlint: disable=R4"\n'
        )
        assert _rule_ids(active) == ["R4"] and not suppressed

    def test_directive_inside_multiline_string_is_inert(self):
        active, suppressed = _lint(
            'DOC = """\n'
            "# emlint: disable=R4\n"
            '"""\n'
            "def f():\n"
            "    return np.random.rand()\n"
        )
        assert _rule_ids(active) == ["R4"] and not suppressed

    def test_odd_whitespace_and_multiple_rules(self):
        active, suppressed = _lint(
            "def f():\n"
            "    return np.random.rand()  #emlint:   disable=R1 ,R4,  R2\n"
        )
        assert not active and _rule_ids(suppressed) == ["R4"]

    def test_lowercase_rule_id_in_directive(self):
        active, suppressed = _lint(
            "def f():\n    return np.random.rand()  # emlint: disable=r4\n"
        )
        assert not active and _rule_ids(suppressed) == ["R4"]

    def test_crlf_line_endings(self):
        src = (
            "def f():\r\n"
            "    return np.random.rand()  # emlint: disable=R4\r\n"
        )
        active, suppressed = lint_source(src, ALG_PATH)
        assert not active and _rule_ids(suppressed) == ["R4"]

    def test_crlf_without_directive_still_finds(self):
        src = "def f():\r\n    return np.random.rand()\r\n"
        active, _ = lint_source(src, ALG_PATH)
        assert _rule_ids(active) == ["R4"]

    def test_syntax_findings_are_never_suppressable(self):
        active, suppressed = _lint("def f(:  # emlint: disable\n")
        assert _rule_ids(active) == ["SYNTAX"] and not suppressed

    def test_syntax_unsuppressable_survives_runner_and_cache(self, tmp_path):
        bad = tmp_path / "repro" / "alg" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(:  # emlint: disable\n")
        cache = tmp_path / "cache.json"
        for _ in range(2):  # second pass serves the finding from cache
            report = lint_paths([bad], root=tmp_path, cache_path=cache)
            assert _rule_ids(report.findings) == ["SYNTAX"]
            assert not report.suppressed


class TestAnalysisCache:
    def _tree(self, tmp_path, body):
        f = tmp_path / "repro" / "alg" / "mod.py"
        f.parent.mkdir(parents=True, exist_ok=True)
        f.write_text(body)
        return f

    def test_warm_run_identical_and_hits(self, tmp_path):
        f = self._tree(tmp_path, "def f(m):\n    return m.disk.peek(0)\n")
        cache = tmp_path / "cache.json"
        r1 = lint_paths([f], root=tmp_path, cache_path=cache)
        r2 = lint_paths([f], root=tmp_path, cache_path=cache)
        assert r1.to_dict()["findings"] == r2.to_dict()["findings"]
        assert r2.cache_stats == {"hits": 1, "misses": 0}

    def test_edit_invalidates_by_content(self, tmp_path):
        f = self._tree(tmp_path, "def f(m):\n    return m.disk.peek(0)\n")
        cache = tmp_path / "cache.json"
        r1 = lint_paths([f], root=tmp_path, cache_path=cache)
        assert _rule_ids(r1.findings) == ["R2"]
        self._tree(tmp_path, "def f(m):\n    return 1\n")
        r2 = lint_paths([f], root=tmp_path, cache_path=cache)
        assert r2.cache_stats["misses"] == 1
        assert not r2.findings

    def test_corrupt_cache_degrades_to_cold(self, tmp_path):
        f = self._tree(tmp_path, "def f(m):\n    return m.disk.peek(0)\n")
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        report = lint_paths([f], root=tmp_path, cache_path=cache)
        assert _rule_ids(report.findings) == ["R2"]

    def test_no_cache_mode(self, tmp_path):
        f = self._tree(tmp_path, "def f(m):\n    return m.disk.peek(0)\n")
        report = lint_paths([f], root=tmp_path, use_cache=False)
        assert _rule_ids(report.findings) == ["R2"]
        assert report.cache_stats == {"hits": 0, "misses": 1}


class TestDiffAndBaseline:
    def test_git_changed_files_runs_against_head(self):
        changed = git_changed_files("HEAD")
        if changed is None:
            pytest.skip("git not available")
        assert isinstance(changed, list)

    def test_unknown_ref_returns_none(self):
        assert git_changed_files("no-such-ref-xyz") is None

    def test_baseline_delta_drops_known_findings(self):
        old = LintFinding(
            path="repro/a.py", line=3, col=0, rule="R2", message="known"
        )
        new = LintFinding(
            path="repro/b.py", line=9, col=0, rule="R4", message="fresh"
        )
        report = LintReport(findings=[old, new], files=2, rules=["R2", "R4"])
        baseline = {"findings": [old.to_dict()]}
        delta = baseline_delta(report, baseline)
        assert [f.message for f in delta.findings] == ["fresh"]

    def test_baseline_delta_is_line_insensitive(self):
        # an edit above a pre-existing finding shifts its line; it must
        # not resurface as new.
        old = LintFinding(
            path="repro/a.py", line=3, col=0, rule="R2", message="known"
        )
        moved = LintFinding(
            path="repro/a.py", line=30, col=0, rule="R2", message="known"
        )
        report = LintReport(findings=[moved], files=1, rules=["R2"])
        delta = baseline_delta(report, {"findings": [old.to_dict()]})
        assert not delta.findings

    def test_only_paths_accepts_git_style_repo_relative_paths(self):
        # `--diff` feeds git's repo-root-relative names ("src/repro/...")
        # while findings use lint-root-relative names ("repro/...");
        # both must select the file.
        for spelling in (
            "src/repro/alg/partitioned.py",
            "repro/alg/partitioned.py",
        ):
            report = lint_paths(only_paths=[spelling])
            assert {f.rule for f in report.suppressed} == {"R2"}, spelling

    def test_only_paths_restricts_reporting(self, tmp_path):
        a = tmp_path / "repro" / "alg" / "a.py"
        a.parent.mkdir(parents=True)
        a.write_text("def f(m):\n    return m.disk.peek(0)\n")
        b = a.parent / "b.py"
        b.write_text("def g():\n    return np.random.rand()\n")
        full = lint_paths([a, b], root=tmp_path, use_cache=False)
        assert sorted(_rule_ids(full.findings)) == ["R2", "R4"]
        only = lint_paths(
            [a, b], root=tmp_path, use_cache=False,
            only_paths=["repro/alg/b.py"],
        )
        assert _rule_ids(only.findings) == ["R4"]


class TestFindingsAndReports:
    def test_finding_render_format(self):
        f = LintFinding(path="repro/x.py", line=3, col=4, rule="R2", message="m")
        assert f.render() == "repro/x.py:3:4: R2 [error] m"

    def test_finding_rejects_bad_severity(self):
        with pytest.raises(ValueError):
            LintFinding(
                path="x.py", line=1, col=0, rule="R1", message="m",
                severity="fatal",
            )

    def test_rule_selection_is_respected(self):
        src = """
            def f(m):
                m.disk.peek(0)
                np.random.rand()
            """
        assert _rule_ids(_active(src, rules=get_rules(["R4"]))) == ["R4"]

    def test_syntax_error_reported_as_finding(self):
        active, _ = _lint("def f(:\n")
        assert active and active[0].rule == "SYNTAX"

    def test_report_json_round_trips(self, tmp_path):
        bad = tmp_path / "repro" / "alg" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(m):\n    return m.disk.peek(0)\n")
        report = lint_paths([bad], root=tmp_path, use_cache=False)
        assert not report.ok and report.files == 1
        payload = json.loads(report.to_json())
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "R2"
        assert payload["findings"][0]["path"] == "repro/alg/bad.py"
        assert "callgraph" in payload and "cache" in payload


class TestRepoGate:
    def test_repo_is_lint_clean(self):
        # The CI gate, runnable as a plain test: the package's own
        # source (plus scripts/ and benchmarks/) has no active findings
        # under every rule.
        report = lint_paths()
        assert report.files > 50
        assert report.findings == [], "\n" + report.render()

    def test_repo_suppressions_are_justified(self):
        # Every committed suppression is one we placed deliberately;
        # this pins the per-rule budget so new ones show up in review.
        # The v2 dataflow engine retired the R3 suppressions in
        # selection.py (callers charge cmp_median5), and the one-kernel
        # module retired bucket_indices' R3 and _group_medians' R6 —
        # the budget must only ever shrink.
        report = lint_paths()
        by_rule = Counter(f.rule for f in report.suppressed)
        assert dict(by_rule) == {
            "R2": 3,  # documented uncounted verification reads
            "R5": 2,  # cli sanitize-check deliberate trap fixtures
            "R7": 2,  # worker reading its own disk via a local alias
        }
        assert len(report.suppressed) == 7
