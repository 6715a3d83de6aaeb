#!/usr/bin/env python3
"""Unit tests for tools/cep_lint.py.

Each rule is exercised twice: against a bad fixture tree
(tools/lint_fixtures/<rule>/) that must make it fire with the expected
findings, and against the real repository, where it must be clean — so
the suite simultaneously proves the rules can fail and that the tree
currently passes them.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import cep_lint  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tools" / "lint_fixtures"


def messages(findings):
    return [str(f) for f in findings]


class EngineCountersMergeTest(unittest.TestCase):
    def test_fires_on_fixture(self):
        findings = cep_lint.check_engine_counters(FIXTURES / "engine_counters")
        self.assertEqual(len(findings), 2, messages(findings))
        self.assertIn("forgotten_total", findings[0].message)
        self.assertIn("MergeDisjoint", findings[0].message)
        self.assertIn("forgotten_bytes", findings[1].message)
        self.assertIn("CurrentBytes", findings[1].message)

    def test_clean_on_repo(self):
        self.assertEqual(messages(cep_lint.check_engine_counters(REPO)), [])


class MetricNamesReadmeTest(unittest.TestCase):
    def test_fires_on_fixture(self):
        findings = cep_lint.check_metric_names(FIXTURES / "metric_names")
        self.assertEqual(len(findings), 1, messages(findings))
        self.assertIn("cep_fixture_undocumented_total", findings[0].message)

    def test_clean_on_repo(self):
        self.assertEqual(messages(cep_lint.check_metric_names(REPO)), [])


class ApiLayeringTest(unittest.TestCase):
    def test_fires_on_fixture(self):
        findings = cep_lint.check_api_layering(FIXTURES / "api_layering")
        self.assertEqual(len(findings), 2, messages(findings))
        self.assertIn("nfa/nfa_engine.h", findings[0].message)
        self.assertIn("tree/tree_engine.h", findings[1].message)

    def test_clean_on_repo(self):
        self.assertEqual(messages(cep_lint.check_api_layering(REPO)), [])


class HotPathAllocTest(unittest.TestCase):
    def test_fires_on_fixture(self):
        findings = cep_lint.check_hot_path_alloc(FIXTURES / "hot_path_alloc")
        by_file = {}
        for f in findings:
            by_file.setdefault(Path(f.path).name, []).append(f)
        # predicate_kernels.cc: local container, push_back, new,
        # make_unique — one finding per offending line.
        self.assertEqual(
            len(by_file.get("predicate_kernels.cc", [])), 4, messages(findings)
        )
        # instance_store.cc: only the stray scratch_.reserve fires; the
        # approved extent-column growth does not.
        store = by_file.get("instance_store.cc", [])
        self.assertEqual(len(store), 1, messages(findings))
        self.assertIn("scratch_", store[0].message)
        # column_buffer.cc: all growth is approved.
        self.assertNotIn("column_buffer.cc", by_file, messages(findings))

    def test_clean_on_repo(self):
        self.assertEqual(messages(cep_lint.check_hot_path_alloc(REPO)), [])


class RawMutexTest(unittest.TestCase):
    def test_fires_on_fixture(self):
        findings = cep_lint.check_raw_mutex(FIXTURES / "raw_mutex")
        # lock_guard line, mutex member, condition_variable member; the
        # comment mentioning std::mutex must not fire.
        self.assertEqual(len(findings), 3, messages(findings))
        found = " ".join(messages(findings))
        self.assertIn("std::lock_guard", found)
        self.assertIn("std::mutex", found)
        self.assertIn("std::condition_variable", found)

    def test_clean_on_repo(self):
        self.assertEqual(messages(cep_lint.check_raw_mutex(REPO)), [])


class RequiredGuardsTest(unittest.TestCase):
    def test_fires_on_fixture(self):
        findings = cep_lint.check_required_guards(FIXTURES / "required_guards")
        self.assertEqual(len(findings), 2, messages(findings))
        self.assertIn("items_", findings[0].message)
        self.assertIn("CEPJOIN_GUARDED_BY(mu_)", findings[0].message)
        # The shard sink's outbox is the worker -> caller hand-off.
        self.assertIn("outbox_", findings[1].message)
        self.assertIn("CEPJOIN_GUARDED_BY(outbox_mu_)", findings[1].message)

    def test_clean_on_repo(self):
        self.assertEqual(messages(cep_lint.check_required_guards(REPO)), [])


class CodecManifestTest(unittest.TestCase):
    def test_fires_on_fixture(self):
        findings = cep_lint.check_codec_manifest(FIXTURES / "codec_manifest")
        found = " ".join(messages(findings))
        self.assertEqual(len(findings), 3, messages(findings))
        # Member added without touching the manifest.
        self.assertIn("forgotten_state_", found)
        self.assertIn("neither side", found)
        # Same member on both sides.
        self.assertIn("'now_'", found)
        self.assertIn("exactly one side", found)
        # Listed name with no surviving declaration.
        self.assertIn("stale_gone_", found)
        self.assertIn("stale entry", found)

    def test_base_class_members_count_as_declared(self):
        # counters_ lives in the Engine base, not the engine classes; the
        # fixture lists it for both engines and must not be flagged stale.
        findings = cep_lint.check_codec_manifest(FIXTURES / "codec_manifest")
        self.assertNotIn("counters_", " ".join(messages(findings)))

    def test_clean_on_repo(self):
        self.assertEqual(messages(cep_lint.check_codec_manifest(REPO)), [])


class CliTest(unittest.TestCase):
    def test_main_ok_on_repo(self):
        self.assertEqual(cep_lint.main(["--root", str(REPO)]), 0)

    def test_main_fails_on_fixture(self):
        self.assertEqual(
            cep_lint.main(
                ["--root", str(FIXTURES / "raw_mutex"), "--rule", "raw-mutex"]
            ),
            1,
        )


if __name__ == "__main__":
    unittest.main()
