"""Leftovers of the removed multi-trial orchestrator.

Only :mod:`repro.fleet.artifacts` (atomic, checksum-sealed artifact
I/O) remains, with its tests, pending its own deletion (ROADMAP). Many
trials run through the experiment harnesses' replica loop; their rank
statistics live in :mod:`repro.analysis.stats`.
"""
