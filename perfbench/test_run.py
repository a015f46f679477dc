"""Checks of run.py's bookkeeping that need no build.

Run from the root of a checkout: python3 perfbench/test_run.py
"""

import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def a_pass(figures, problems=()):
    return SimpleNamespace(figures=figures, problems=list(problems))


class LedgerTest(unittest.TestCase):
    def test_one_bad_tsv_fails_once(self):
        ledger = run.Ledger(seed=2, figures=[])
        ledger.record(a_pass({"fig05": b"a", "fig09": b"b"}), "pass0")
        ledger.record(a_pass({"fig05": b"a", "fig09": b"c"}), "pass1")
        self.assertEqual((ledger.attempted, ledger.failed), (4, 1))

    def test_a_broken_check_fails_every_figure_of_its_pass(self):
        ledger = run.Ledger(seed=2, figures=[])
        ledger.record(a_pass({"fig05": b"a"}), "pass0")
        ledger.record(a_pass({"fig05": b"a", "fig09": None}, ["cold: 3 store hits"]), "pass1")
        self.assertEqual((ledger.attempted, ledger.failed), (3, 2))

    def test_seed_1_compares_against_results(self):
        ledger = run.Ledger(seed=1, figures=["fig05"])
        ledger.record(a_pass({"fig05": ledger.reference["fig05"]}), "pass0")
        ledger.record(a_pass({"fig05": b"not the reference"}), "pass1")
        self.assertEqual((ledger.attempted, ledger.failed), (2, 1))

    def test_replay_checks_count_as_attempted(self):
        ledger = run.Ledger(seed=2, figures=[])
        ledger.check(True, "counts repeat")
        ledger.check(False, "counts differ")
        self.assertEqual((ledger.attempted, ledger.failed, ledger.notes), (2, 1, ["counts differ"]))


if __name__ == "__main__":
    unittest.main()
