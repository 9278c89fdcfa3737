"""The serial reference engine: the test oracle for the batched engine.

:class:`SerialCampaign` walks every mutant of a collected window through
the scalar pipeline, one at a time — the classic AFL inner loop. It is
never selected by configuration; the batch equivalence tests (DESIGN.md
§8) import it by name and check that :class:`Campaign` and
:class:`~repro.fuzzer.mp.MPCampaign` produce bit-identical campaigns.
"""

from __future__ import annotations

from .campaign import Campaign


class SerialCampaign(Campaign):
    """A :class:`Campaign` whose window runner is the scalar loop."""

    def _run_window(self, window, deadline: float) -> None:
        specs, seeds, bounds = window
        mega = self.mutator.havoc_apply(self.mutator.draw_rows(specs))
        for k, seed in enumerate(seeds):
            with self._span_run_one:
                for i in range(int(bounds[k]), int(bounds[k + 1])):
                    if self._exhausted(deadline):
                        return
                    self._run_mutant(mega.tobytes(i), seed)
                    self._record_curve()
