"""Wrappers around the public calls into each layer, and the ledger they feed.

Nothing under ``src/`` knows about this module.  :class:`Tracer` patches
public functions and methods of the ``repro`` package in place (and puts
every original back on :meth:`Tracer.uninstall`), so one process can run
a campaign untraced, then traced, and compare the records.

Two depths:

* ``traced=False`` — the end-to-end run.  Only three calls are wrapped,
  and only to count: the scenario entry points (host ms per scenario,
  peak RSS of the process that ran it), ``AvrCpu.run`` (guest
  instructions retired) and ``MasterProcessor.boot`` (simulated cost and
  ISP pages of each detection-triggered recovery).  No span is kept.
* ``traced=True`` — the ledger run.  Every layer boundary in
  :data:`LAYER_HOOKS` records a span ``[name, start, end, parent,
  scenario]`` in memory, plus the counts its probe takes.

The scenario entry point attaches what it measured to the result as a
plain ``_e2e`` attribute, which pickles back from pool workers with the
result; the deterministic record (``ScenarioResult.to_record``) never
sees it.
"""

from __future__ import annotations

import importlib
import os
import resource
import sys
import time
from typing import Callable, Dict, List, Optional

_now = time.perf_counter

ROOT = "sim.scenario"


# -- probes: (counts, args, kwargs) -> after(result) --------------------------

def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _probe_cpu_run(counts, args, kwargs):
    cpu = args[0]
    engine = cpu.engine
    retired = cpu.instructions_lifetime + cpu.instructions_retired
    misses = getattr(engine, "decode_misses", 0)
    compiled = len(getattr(engine, "compile_times_ms", ()))

    def after(_result):
        # counter deltas rather than the return value, so the
        # instructions retired before a CpuFault still count
        _add(counts, "avr.insn",
             cpu.instructions_lifetime + cpu.instructions_retired - retired)
        _add(counts, "avr.decode_misses",
             getattr(engine, "decode_misses", 0) - misses)
        times = getattr(engine, "compile_times_ms", ())
        if len(times) > compiled:
            _add(counts, "avr.compile_ms", sum(times[compiled:]))
    return after


def _probe_master_boot(counts, args, kwargs):
    master = args[0]
    detected = kwargs.get("attack_detected", args[1] if len(args) > 1 else False)
    if not detected:
        return None
    written = master.isp.stats.pages_written

    def after(overhead_ms):
        if overhead_ms is not None:
            counts.setdefault("recoveries", []).append(
                (overhead_ms, master.isp.stats.pages_written - written)
            )
    return after


def _probe_master_watch(counts, args, kwargs):
    def after(detected):
        if detected:
            _add(counts, "core.master_watch.detections", 1)
    return after


def _probe_isp_program(counts, args, kwargs):
    stats = args[0].stats
    written, skipped = stats.pages_written, stats.pages_skipped

    def after(_result):
        _add(counts, "hw.isp.pages_written", stats.pages_written - written)
        _add(counts, "hw.isp.pages_skipped", stats.pages_skipped - skipped)
    return after


def _probe_bytes(position: int, key: str):
    def probe(counts, args, kwargs):
        _add(counts, key, len(args[position]))
        return None
    return probe


def _probe_artifact_get(counts, args, kwargs):
    def after(value):
        if value is not None:
            _add(counts, "sim.artifacts.hits", 1)
    return after


def _probe_artifact_put(counts, args, kwargs):
    cache, key = args[0], args[1]

    def after(_result):
        _add(counts, "sim.artifacts.put.bytes",
             cache.path_for(key).stat().st_size)
    return after


# -- what gets wrapped --------------------------------------------------------
#
# (span name, module, owner, attributes, probe).  ``owner`` is a class
# name in ``module``; None means a module-level function (every
# ``repro`` module holding a reference to it is patched, since callers
# import it by name); "<backends>" means each DefenseBackend class that
# defines the attribute; "<attack kinds>" means the ``inject`` hook of
# every registered AttackKind.

LAYER_HOOKS = (
    ("firmware.build", "repro.firmware.apps", None, ("build_app",), None),
    ("binfmt.hex_decode", "repro.binfmt.image", "FirmwareImage",
     ("from_preprocessed_hex",), None),
    ("binfmt.reloc_index", "repro.binfmt.relocindex", None,
     ("build_relocation_index",), None),
    ("core.preprocess", "repro.core.defenses", "<backends>",
     ("preprocess",), None),
    ("core.diversify", "repro.core.defenses", "<backends>",
     ("diversify",), None),
    ("core.recover", "repro.core.defenses", "<backends>", ("recover",), None),
    ("core.master_boot", "repro.core.master", "MasterProcessor", ("boot",),
     _probe_master_boot),
    ("core.master_watch", "repro.core.master", "MasterProcessor", ("watch",),
     _probe_master_watch),
    ("hw.isp_program", "repro.hw.isp", "IspProgrammer", ("program",),
     _probe_isp_program),
    ("attack.gadget_scan", "repro.attack.gadgets", "GadgetFinder",
     ("gadgets",), None),
    ("attack.inject", "repro.attack.registry", "<attack kinds>",
     ("inject",), None),
    ("avr.run", "repro.avr.cpu", "AvrCpu", ("run",), _probe_cpu_run),
    ("uav.tick", "repro.uav.autopilot", "Autopilot", ("tick",), None),
    ("uav.detector", "repro.uav.groundstation", "GcsAnomalyDetector",
     ("observe",), _probe_bytes(2, "uav.detector.bytes")),
    ("uav.gcs_ingest", "repro.uav.groundstation", "GroundStation",
     ("ingest",), None),
    ("mavlink.session", "repro.mavlink.attacks", "ProtocolSession",
     ("run",), None),
    ("mavlink.parser", "repro.mavlink.parser", "StreamParser", ("push",),
     _probe_bytes(1, "mavlink.parser.bytes")),
    ("sim.artifacts.get", "repro.sim.artifacts", "ArtifactCache",
     ("get_object", "get_bytes", "get_text"), _probe_artifact_get),
    ("sim.artifacts.put", "repro.sim.artifacts", "ArtifactCache",
     ("put_object", "put_bytes", "put_text"), _probe_artifact_put),
    ("sim.snapshot_restore", "repro.core.mavr", "MavrSystem",
     ("from_snapshot",), None),
)

#: the only hooks the untraced end-to-end run installs (counting only)
COUNTING_HOOKS = ("avr.run", "core.master_boot")

#: scenario entry points; both are looked up by the campaign worker at
#: call time, so patching the module attributes reaches pool workers
ROOT_HOOKS = (
    ("repro.sim.scenario", "run_scenario"),
    ("repro.sim.swarm", "run_swarm_scenario"),
)


class Tracer:
    """Installs the wrappers and holds what they record."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        #: [name, start_s, end_s, parent index or -1, scenario label]
        self.spans: List[list] = []
        #: scenario label ("setup" outside any scenario) -> counts
        self.scenario_counts: Dict[str, dict] = {"setup": {}}
        self.scenario = "setup"
        self.counts = self.scenario_counts["setup"]
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    # -- install / uninstall --------------------------------------------------

    def install(self) -> "Tracer":
        if self._undo:
            raise RuntimeError("tracer already installed")
        _import_all()
        for name, module, owner, attrs, probe in LAYER_HOOKS:
            if not self.traced and name not in COUNTING_HOOKS:
                continue
            for attr in attrs:
                self._patch(name, module, owner, attr, probe)
        for module, attr in ROOT_HOOKS:
            original = getattr(importlib.import_module(module), attr)
            inner = self._wrap(ROOT, original, None) if self.traced else original
            self._replace_everywhere(original, self._root(inner))
        return self

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original, frozen = self._undo.pop()
            (object.__setattr__ if frozen else setattr)(target, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, name, module_name, owner, attr, probe) -> None:
        module = importlib.import_module(module_name)
        if owner is None:
            original = getattr(module, attr)
            self._replace_everywhere(original, self._wrap(name, original, probe))
        elif owner == "<backends>":
            for cls in _subclasses(module.DefenseBackend):
                if attr in cls.__dict__:
                    self._patch_class(cls, attr, name, probe)
        elif owner == "<attack kinds>":
            for kind in module.attack_kinds():
                original = getattr(kind, attr)
                if original is not None:
                    self._undo.append((kind, attr, original, True))
                    object.__setattr__(
                        kind, attr, self._wrap(name, original, probe)
                    )
        else:
            self._patch_class(getattr(module, owner), attr, name, probe)

    def _patch_class(self, cls, attr, name, probe) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(name, original.__func__, probe))
        else:
            wrapped = self._wrap(name, original, probe)
        self._undo.append((cls, attr, original, False))
        setattr(cls, attr, wrapped)

    def _replace_everywhere(self, original, wrapped) -> None:
        """Point every ``repro`` module's reference to ``original`` at
        ``wrapped`` (callers bind module-level functions at import)."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original, False))
                    setattr(module, attr, wrapped)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, probe) -> Callable:
        tracer = self
        if not self.traced:
            def counted(*args, **kwargs):
                after = probe(tracer.counts, args, kwargs)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    if after is not None:
                        after(result)
            return counted

        spans, stack = self.spans, self._stack

        def spanned(*args, **kwargs):
            # a same-layer call inside the layer (super(), get_object ->
            # get_bytes) belongs to the outer span
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            after = probe(tracer.counts, args, kwargs) if probe else None
            record = [name, _now(), 0.0, stack[-1] if stack else -1,
                      tracer.scenario]
            stack.append(len(spans))
            spans.append(record)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record[2] = _now()
                stack.pop()
                if after is not None:
                    after(result)
        return spanned

    def _root(self, fn: Callable) -> Callable:
        tracer = self

        def scenario(spec, *args, **kwargs):
            tracer.scenario = spec.label
            tracer.counts = tracer.scenario_counts.setdefault(spec.label, {})
            start = _now()
            try:
                result = fn(spec, *args, **kwargs)
            finally:
                elapsed_ms = (_now() - start) * 1000.0
                counts = tracer.counts
                tracer.scenario = "setup"
                tracer.counts = tracer.scenario_counts["setup"]
            result._e2e = {
                "ms": elapsed_ms,
                "pid": os.getpid(),
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "counts": counts,
            }
            return result
        return scenario

    # -- the ledger -----------------------------------------------------------

    def layer_totals(self, scenarios) -> Dict[str, dict]:
        """name -> {calls, ms, self_ms} over spans of the given scenarios.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _scenario in spans:
            if parent >= 0:
                child_s[parent] += end - start
        wanted = set(scenarios)
        totals: Dict[str, dict] = {}
        for index, (name, start, end, _parent, scenario) in enumerate(spans):
            if scenario not in wanted:
                continue
            cell = totals.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            cell["calls"] += 1
            cell["ms"] += (end - start) * 1000.0
            cell["self_ms"] += (end - start - child_s[index]) * 1000.0
        return totals


def _import_all() -> None:
    """Import every ``repro`` module, so a module that binds a wrapped
    function by name is loaded (and patched) before the wrappers go in."""
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(s for s in _subclasses(sub) if s not in found)
    return found


def result_data(result) -> Optional[dict]:
    """What the scenario wrapper attached to a result (None if unwrapped)."""
    return getattr(result, "_e2e", None)
