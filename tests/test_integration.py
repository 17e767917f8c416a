"""Integration tests: the warehouse architecture of slide 3, end to end.

Module streams (IE, cleaning, matching) feed probabilistic updates into
a warehouse; queries come back with confidences; simplification keeps
the store compact; exact, possible-worlds and Monte-Carlo evaluation
agree along the way.
"""

import random

import pytest

from repro import (
    Session,
    estimate_query,
    query_possible_worlds,
    to_possible_worlds,
)
from repro.core.query import query_fuzzy_tree
from repro.warehouse import Warehouse
from repro.workloads import CleaningScenario, ExtractionScenario, MatchingScenario


class TestExtractionPipeline:
    def test_full_pipeline(self, tmp_path):
        scenario = ExtractionScenario(seed=11, n_people=5)
        with Warehouse.create(tmp_path / "wh", scenario.initial_document()) as wh:
            for tx in scenario.stream(30):
                wh._commit_update(tx)
            # Every query must return ranked, in-range probabilities.
            for pattern in scenario.query_mix():
                answers = Session(wh).query(pattern).answers()
                probabilities = [a.probability for a in answers]
                assert all(0.0 < p <= 1.0 + 1e-9 for p in probabilities)
                assert probabilities == sorted(probabilities, reverse=True)
            stats = wh.stats()
            assert stats["sequence"] == 31
            assert stats["log_entries"] == 31

        # Durability: reopening yields the same answers.
        with Warehouse.open(tmp_path / "wh") as wh:
            scenario2 = ExtractionScenario(seed=11, n_people=5)
            for pattern in scenario2.query_mix():
                Session(wh).query(pattern).answers()

    def test_confidence_accumulates_across_conflicting_facts(self, tmp_path):
        """Two modules proposing emails for the same person both persist."""
        scenario = ExtractionScenario(seed=1, n_people=1)
        with Warehouse.create(tmp_path / "wh", scenario.initial_document()) as wh:
            emails = [tx for tx in scenario.stream(60) if "email" in str(tx.operations)]
            for tx in emails[:2]:
                wh._commit_update(tx)
            answers = Session(wh).query("/directory { person { //email } }").answers()
            # Each inserted email is an independent uncertain fact.
            assert len(answers) >= 1
            for answer in answers:
                assert answer.probability < 1.0


class TestCleaningPipeline:
    def test_dedup_then_simplify_shrinks_document(self, tmp_path):
        scenario = CleaningScenario(seed=5, n_products=4, duplicate_rate=1.0)
        with Warehouse.create(tmp_path / "wh", scenario.initial_document()) as wh:
            before_nodes = wh.stats()["nodes"]
            for tx in scenario.stream(6):
                wh._commit_update(tx)
            grown = wh.stats()["nodes"]
            report = wh.simplify()
            shrunk = wh.stats()["nodes"]
            assert grown >= before_nodes  # survivor copies accumulated
            assert shrunk <= grown
            assert report.nodes_after == shrunk

    def test_simplify_does_not_change_answers(self, tmp_path):
        scenario = CleaningScenario(seed=6, n_products=3, duplicate_rate=1.0)
        with Warehouse.create(tmp_path / "wh", scenario.initial_document()) as wh:
            for tx in scenario.stream(4):
                wh._commit_update(tx)
            pattern = scenario.query_mix()[0]
            results = Session(wh).query(pattern)
            before = {a.tree.canonical(): a.probability for a in results.answers()}
            wh.simplify()
            after = {a.tree.canonical(): a.probability for a in results.answers()}
            assert set(before) == set(after)
            for key in before:
                assert after[key] == pytest.approx(before[key], abs=1e-9)


class TestThreeEvaluatorsAgree:
    def test_exact_worlds_and_montecarlo(self):
        scenario = MatchingScenario(seed=7)
        doc = scenario.initial_document()
        from repro.core.update import apply_update

        for tx in scenario.stream(4):
            apply_update(doc, tx)

        pattern = scenario.query_mix()[1]  # //match
        exact = {
            a.tree.canonical(): a.probability
            for a in query_fuzzy_tree(doc, pattern)
        }
        via_worlds = {
            w.tree.canonical(): w.probability
            for w in query_possible_worlds(to_possible_worlds(doc), pattern)
        }
        assert set(exact) == set(via_worlds)
        for key in exact:
            assert exact[key] == pytest.approx(via_worlds[key], abs=1e-9)

        estimates = {
            e.tree.canonical(): e.probability
            for e in estimate_query(doc, pattern, samples=3000, rng=random.Random(8))
        }
        for key, probability in exact.items():
            assert estimates.get(key, 0.0) == pytest.approx(probability, abs=0.05)


class TestMixedModules:
    def test_three_module_types_share_one_warehouse(self, tmp_path):
        """Slide 3: several modules feed the same store."""
        extraction = ExtractionScenario(seed=21, n_people=3)
        with Warehouse.create(tmp_path / "wh", extraction.initial_document()) as wh:
            matching = MatchingScenario(seed=22)
            # Interleave extraction inserts with a matching-style annotation
            # under the directory root.
            from repro import InsertOperation, UpdateTransaction
            from repro.tpwj.parser import parse_pattern
            from repro.trees import tree

            for index, tx in enumerate(extraction.stream(10)):
                wh._commit_update(tx)
                if index % 3 == 0:
                    annotation = UpdateTransaction(
                        parse_pattern("/directory[$d]"),
                        [InsertOperation("d", tree("audit", tree("note", f"n{index}")))],
                        0.99,
                    )
                    wh._commit_update(annotation)
            wh.document.validate()
            assert wh.stats()["sequence"] > 10
