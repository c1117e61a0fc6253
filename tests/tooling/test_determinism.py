#!/usr/bin/env python3
"""Tests for scripts/analyze/determinism.py ("symdet", registered with CTest
as tooling.determinism).

Every checker is exercised in both directions against the committed fixture
trees (scripts/analyze/fixtures/determinism/): the clean tree must pass, each
seeded-violation tree must fail with the right checker/rule name, waiver and
registry hygiene must hold, the compile-database scoping must match
layering.py's semantics, and the real repository must be clean.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SYMDET = REPO_ROOT / "scripts" / "analyze" / "determinism.py"
FIXTURES = REPO_ROOT / "scripts" / "analyze" / "fixtures" / "determinism"


def run_symdet(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SYMDET), *args],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )


def run_fixture(name: str, *extra: str,
                registry: bool = False) -> subprocess.CompletedProcess:
    args = ["--root", str(FIXTURES / name)]
    if registry:
        args += ["--registry", str(FIXTURES / name / "registry.toml")]
    return run_symdet(*args, *extra)


def load_symdet():
    spec = importlib.util.spec_from_file_location("determinism", SYMDET)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations via sys.modules
    spec.loader.exec_module(module)
    return module


symdet = load_symdet()


class CleanTree(unittest.TestCase):
    def test_clean_tree_passes(self):
        result = run_fixture("clean")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("OK", result.stdout)

    def test_clean_tree_accepts_seeded_rng_split_and_annotations(self):
        # The clean tree deliberately contains every "looks suspicious but is
        # fine" shape: parameter-seeded Rng, per-shard .split() inside a pool
        # lambda, a non-escaping unordered traversal, a SYM_ORDER_INSENSITIVE
        # annotated traversal, a cross-file mem-init Rng member, and an
        # ordered std::map traversal. None may fire.
        result = run_fixture("clean")
        self.assertNotIn("determinism:", result.stdout)


class EntropyChecker(unittest.TestCase):
    def test_every_entropy_source_fires(self):
        result = run_fixture("entropy")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        for rule in ("std-rand", "random-device", "wall-clock", "time-call",
                     "getenv", "foreign-engine", "pointer-hash"):
            self.assertIn(f"entropy/{rule}", result.stdout, rule)

    def test_findings_carry_file_and_line(self):
        result = run_fixture("entropy")
        self.assertIn("src/core/entropy.cpp:8", result.stdout)


class OrderingChecker(unittest.TestCase):
    def test_escaping_range_for_and_iterator_traversal_fire(self):
        result = run_fixture("ordering_escape")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("ordering/unordered-traversal", result.stdout)
        self.assertIn("writes to 'report'", result.stdout)
        self.assertIn("iterator traversal", result.stdout)

    def test_pointer_sorts_fire(self):
        result = run_fixture("pointer_sort")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertEqual(result.stdout.count("ordering/pointer-sort"), 2,
                         result.stdout)
        self.assertIn("raw pointer value", result.stdout)
        self.assertIn("std::less over a pointer type", result.stdout)

    def test_annotation_sanctions_traversal(self):
        # Adding SYM_ORDER_INSENSITIVE above the escaping loop silences it.
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "tree"
            src = root / "src" / "sched"
            src.mkdir(parents=True)
            original = (FIXTURES / "ordering_escape" / "src" / "sched" /
                        "order.cpp").read_text(encoding="utf-8")
            patched = original.replace(
                "  for (const auto& [node, weight] : weights) {",
                "  SYM_ORDER_INSENSITIVE(\"fixture\");\n"
                "  for (const auto& [node, weight] : weights) {",
            ).replace(
                "  for (auto it = weights.begin(); it != weights.end(); ++it) {",
                "  SYM_ORDER_INSENSITIVE(\"fixture\");\n"
                "  for (auto it = weights.begin(); it != weights.end(); ++it) {",
            )
            self.assertNotEqual(original, patched)
            (src / "order.cpp").write_text(patched, encoding="utf-8")
            result = run_symdet("--root", str(root))
            self.assertEqual(result.returncode, 0, result.stdout + result.stderr)


class RngChecker(unittest.TestCase):
    def test_default_constructed_local_and_member_fire(self):
        result = run_fixture("rng_default")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertEqual(result.stdout.count("rng/default-constructed"), 2,
                         result.stdout)

    def test_literal_seed_fires_for_locals_and_temporaries(self):
        result = run_fixture("rng_literal")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertEqual(result.stdout.count("rng/literal-seed"), 2, result.stdout)
        self.assertIn("0xdeadbeef", result.stdout)

    def test_shared_rng_across_pool_tasks_fires(self):
        result = run_fixture("rng_shared")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("rng/shared-across-tasks", result.stdout)
        self.assertIn("split", result.stdout)

    def test_split_derived_auto_rng_in_pool_task_is_clean(self):
        # The run_sweep_grid seeding shape: `auto rng = base.split(i)` inside
        # a parallel_for lambda. No `Rng` token appears in the
        # declaration, so this regression-tests the assigned-from-split skip
        # (it false-positived as shared-across-tasks before).
        result = run_fixture("rng_split_sweep")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertNotIn("rng/shared-across-tasks", result.stdout)

    def test_member_seeded_in_sibling_cpp_is_clean(self):
        # clean/src/machine/widget.hpp declares `util::Rng rng_;` with no
        # initializer; the mem-init lives in widget.cpp. Cross-file member
        # resolution must find it.
        result = run_fixture("clean")
        self.assertNotIn("rng/default-constructed", result.stdout)


class WaiverHygiene(unittest.TestCase):
    def test_registered_waiver_passes_and_is_reported(self):
        result = run_fixture("waived", registry=True)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("(waived)", result.stdout)
        self.assertIn("1 waived", result.stdout)

    def test_unregistered_inline_waiver_fails(self):
        result = run_fixture("unregistered_waiver", registry=True)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("waiver/unregistered", result.stdout)

    def test_stale_registry_entry_fails(self):
        result = run_fixture("stale_registry", registry=True)
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn("waiver/stale-registry", result.stdout)

    def test_malformed_and_unused_waivers_fail(self):
        result = run_fixture("malformed_waiver")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertEqual(result.stdout.count("waiver/syntax"), 2, result.stdout)
        self.assertIn("waiver/unused", result.stdout)

    def test_list_waivers_mode(self):
        result = run_fixture("waived", "--list-waivers", registry=True)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("[live]", result.stdout)
        self.assertIn("sanctioned ambient read", result.stdout)


class CompileDbScoping(unittest.TestCase):
    def test_db_restricts_scan_to_compiled_tus(self):
        # dead.cpp calls std::rand() but is absent from the database: with the
        # DB the tree is clean (same semantics as layering.py's orphan logic),
        # without it the violation surfaces.
        with_db = run_fixture(
            "db_scoped", "--compile-db",
            str(FIXTURES / "db_scoped" / "compile_commands.json"))
        self.assertEqual(with_db.returncode, 0, with_db.stdout + with_db.stderr)
        without_db = run_fixture("db_scoped", "--no-compile-db")
        self.assertEqual(without_db.returncode, 1,
                         without_db.stdout + without_db.stderr)
        self.assertIn("entropy/std-rand", without_db.stdout)
        self.assertIn("dead.cpp", without_db.stdout)

    def test_missing_db_is_usage_error(self):
        result = run_fixture("clean", "--compile-db", "/nonexistent/db.json")
        self.assertEqual(result.returncode, 2, result.stdout + result.stderr)


class JsonOutput(unittest.TestCase):
    def test_json_findings_schema(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "findings.json"
            result = run_fixture("entropy", "--json", str(out))
            self.assertEqual(result.returncode, 1)
            doc = json.loads(out.read_text(encoding="utf-8"))
            self.assertEqual(doc["tool"], "symdet")
            self.assertEqual(doc["version"], 1)
            self.assertEqual(doc["counts"]["error"], len(doc["findings"]))
            for finding in doc["findings"]:
                for key in ("checker", "rule", "file", "line", "message", "waived"):
                    self.assertIn(key, finding)
            self.assertTrue(any(f["rule"] == "std-rand" for f in doc["findings"]))

    def test_json_counts_split_waived_from_errors(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "findings.json"
            result = run_fixture("waived", "--json", str(out), registry=True)
            self.assertEqual(result.returncode, 0)
            doc = json.loads(out.read_text(encoding="utf-8"))
            self.assertEqual(doc["counts"], {"error": 0, "waived": 1})


class LexerUnits(unittest.TestCase):
    def test_stripper_hides_banned_tokens_in_comments_and_strings(self):
        code, in_block = symdet.strip_strings_and_comments(
            'f("std::rand()"); // random_device')
        self.assertNotIn("rand", code)
        self.assertFalse(in_block)

    def test_stripper_tracks_block_comment_state(self):
        _, in_block = symdet.strip_strings_and_comments("/* getenv(")
        self.assertTrue(in_block)
        code, in_block = symdet.strip_strings_and_comments(
            "still */ int x;", in_block_comment=True)
        self.assertFalse(in_block)
        self.assertIn("int x;", code)

    def test_int_literal_recognizer(self):
        for literal in ("0xd0d0", "12345", "0x9d15ea5e5ull", "1'000'000", "7u"):
            self.assertTrue(symdet.INT_LITERAL_RE.match(literal), literal)
        for not_literal in ("seed", "config.seed", "seed + 1", "0x", ""):
            self.assertFalse(symdet.INT_LITERAL_RE.match(not_literal), not_literal)

    def test_body_escape_analysis(self):
        self.assertIsNone(symdet.body_escapes(
            "{ int local = 0; local += 1; }", set()))
        self.assertIsNotNone(symdet.body_escapes(
            "{ total += page; }", set()))
        self.assertIsNotNone(symdet.body_escapes(
            "{ report.push_back(v); }", set()))
        self.assertIsNone(symdet.body_escapes(
            "{ loopvar += 1; }", {"loopvar"}))


class RealRepository(unittest.TestCase):
    def test_repo_is_clean(self):
        # The committed tree must hold the determinism contract with zero
        # unwaived findings, whether or not a compile database exists.
        result = run_symdet("--root", str(REPO_ROOT), "--no-compile-db")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_repo_registry_is_consistent(self):
        registry = REPO_ROOT / "scripts" / "analyze" / "determinism_waivers.toml"
        self.assertTrue(registry.is_file())
        result = run_symdet("--root", str(REPO_ROOT), "--no-compile-db",
                            "--registry", str(registry))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)


if __name__ == "__main__":
    unittest.main()
