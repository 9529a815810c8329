"""Interpreted-evaluator oracle over the batches a run actually sent.

The oracle replays the stream through ``repro.eval.evaluate`` — the
reference evaluator, not the compiled engines the servers run — and
yields, for the watched view, the exact delta of every batch (from the
first-order delta query of ``repro.delta.derive_delta``) and, for
every view, the final contents.  It runs after the timed window.
"""

from __future__ import annotations

from repro.delta import derive_delta
from repro.eval import Database, evaluate
from repro.query.schema import base_relations
from repro.ring import GMR


class Oracle:
    def __init__(self, specs: dict, watched: str):
        self.specs = specs
        self.watched = watched
        self.db = Database()
        query = specs[watched].query
        self._rels = base_relations(query)
        self._delta_q: dict[str, object] = {}

    def step(self, relation: str, batch: GMR) -> GMR:
        """Apply one batch; returns the watched view's exact change."""
        delta = GMR()
        if relation in self._rels:
            expr = self._delta_q.get(relation)
            if expr is None:
                expr = self._delta_q[relation] = derive_delta(
                    self.specs[self.watched].query, relation
                )
            self.db.set_delta(relation, batch)
            try:
                delta = evaluate(expr, self.db)
            finally:
                self.db.clear_deltas()
        self.db.apply_update(relation, batch)
        return delta

    def apply(self, relation: str, batch: GMR) -> None:
        """Apply one batch without computing its delta (cheap)."""
        self.db.apply_update(relation, batch)

    def final(self, view: str) -> GMR:
        return evaluate(self.specs[view].query, self.db)

