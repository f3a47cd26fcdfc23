"""repro.faults — deterministic fault injection and resilience campaigns.

MilBack's clean pipeline assumes ideal hardware; this subsystem asks
what happens when it is not.  Three pieces:

* a **taxonomy** (:mod:`repro.faults.spec`): eleven registered fault
  kinds — chirp drop/truncation, interference bursts, clock skew,
  symbol jitter, ADC saturation and stuck bits, envelope-detector gain
  drift, SPDT switch stuck-reflective/absorptive, and link drops —
  each configured by a :class:`FaultSpec` (kind, rate, intensity);
* a **plan/hook layer** (:mod:`repro.faults.plan`): a
  :class:`FaultPlan` carries its own RNG stream (spawned per trial,
  the same discipline as :mod:`repro.parallel`) and activates via a
  context manager; hook functions at the existing pipeline seams are
  bitwise no-ops when no plan is active;
* a **campaign runner** (:mod:`repro.faults.campaign`, CLI
  ``repro faults``): sweeps fault rate through the parallel executor,
  emits degradation curves (localization error, BER, ARQ delivery
  ratio and mean attempts vs rate) and asserts resilience invariants.

Corruption may only enter library code through this package's public
API (lint rule ML011).  See ``docs/ROBUSTNESS.md``.

Quick use::

    from repro import faults

    plan = faults.FaultPlan([faults.FaultSpec("link_drop", rate=0.2)], rng=7)
    with faults.activate(plan):
        ...  # run the pipeline; sessions now drop 20% of the time
"""

from __future__ import annotations

from repro.faults.plan import (
    FaultPlan,
    activate,
    active_plan,
    adc_codes,
    adc_input,
    corrupt_burst,
    detector_output,
    link_drops,
    switch_reflection,
    switch_toggle_amplitudes,
)
from repro.faults.spec import (
    FAULT_KINDS,
    FaultKind,
    FaultSite,
    FaultSpec,
    fault_kind,
    parse_fault_specs,
)

__all__ = [
    # taxonomy
    "FaultSite",
    "FaultKind",  # milback: disable=ML014 — public fault-spec surface
    "FaultSpec",
    "FAULT_KINDS",
    "fault_kind",  # milback: disable=ML014 — public fault-spec surface
    "parse_fault_specs",
    # plan + activation
    "FaultPlan",
    "active_plan",
    "activate",
    # pipeline hooks
    "corrupt_burst",
    "adc_input",
    "adc_codes",
    "detector_output",
    "switch_toggle_amplitudes",
    "switch_reflection",
    "link_drops",
]
