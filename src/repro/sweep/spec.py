"""Sweep specifications: the declarative form of a design-space grid.

A :class:`SweepSpec` names the axes of an experiment — designs, stimulus
profiles, pass lists, isolation styles and the ω/h_min cost grid — plus
the shared :class:`~repro.runconfig.RunConfig`. :meth:`SweepSpec.expand`
multiplies the axes into concrete :class:`SweepPoint` s, each carrying
exactly the wire payload the serve layer would run for it; the point's
``key`` *is* :func:`repro.serve.cache.job_cache_key`, so sweep results,
the serve result cache and the experiment store all share one content
address — a point computed by any path answers every other path.

Specs are JSON round-trippable (``from_dict`` / ``to_dict``) so they can
live in files, travel over the CLI and be journaled next to the store
for provenance.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.designs import builtin_design
from repro.errors import ReproError, SweepError
from repro.netlist import textio
from repro.runconfig import RunConfig
from repro.serve.cache import canonical_json, job_cache_key
from repro.sim.compile import design_fingerprint
from repro.sim.stimulus import normalize_stimulus_spec, stimulus_fingerprint

#: The job method every sweep point runs.
SWEEP_METHOD = "optimize"

_SPEC_FIELDS = frozenset(
    {
        "name",
        "designs",
        "stimuli",
        "pass_lists",
        "styles",
        "h_min",
        "omega_p",
        "omega_a",
        "run",
    }
)


def stimulus_label(spec: Optional[Mapping]) -> str:
    """Short human-readable axis label for a normalized stimulus spec."""
    if spec is None:
        return "default"
    if "profile" in spec:
        params = spec.get("params") or {}
        if not params:
            return str(spec["profile"])
        args = ",".join(f"{k}={params[k]}" for k in sorted(params))
        return f"{spec['profile']}({args})"
    for kind in ("csv", "vcd"):
        if kind in spec:
            digest = hashlib.sha256(str(spec[kind]).encode("utf-8")).hexdigest()
            return f"{kind}:{digest[:8]}"
    return "custom"


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the expanded grid, ready to dispatch."""

    index: int
    design_name: str
    design_text: str
    design_fingerprint: str
    stimulus: Optional[dict]
    passes: Tuple[str, ...]
    style: str
    h_min: float
    omega_p: float
    omega_a: float
    run: dict
    key: str

    @property
    def stimulus_name(self) -> str:
        return stimulus_label(self.stimulus)

    @property
    def params(self) -> dict:
        """The serve ``optimize`` params this point runs with."""
        return {
            "passes": list(self.passes),
            "style": self.style,
            "h_min": self.h_min,
            "omega_p": self.omega_p,
            "omega_a": self.omega_a,
        }

    def wire_payload(self) -> dict:
        """Byte-identical to :meth:`repro.serve.jobs.Job.wire_payload`."""
        payload = {
            "method": SWEEP_METHOD,
            "design_text": self.design_text,
            "run": self.run,
            "params": self.params,
        }
        if self.stimulus is not None:
            payload["stimulus"] = self.stimulus
        return payload

    def axes(self) -> dict:
        """The report row identity: which grid cell this is."""
        return {
            "design": self.design_name,
            "stimulus": self.stimulus_name,
            "passes": "+".join(self.passes),
            "style": self.style,
            "h_min": self.h_min,
            "omega_p": self.omega_p,
            "omega_a": self.omega_a,
        }


def _resolve_design(entry, index: int) -> Tuple[str, str]:
    """``(name, canonical_text)`` for one designs-axis entry.

    Accepts a builtin name/alias, a path to a textual netlist file, or
    ``{"text": ...}`` / ``{"path": ...}`` dicts.
    """
    if isinstance(entry, Mapping):
        unknown = set(entry) - {"text", "path", "name"}
        if unknown:
            raise SweepError(
                f"designs[{index}]: unknown field(s) {sorted(unknown)}"
            )
        if ("text" in entry) == ("path" in entry):
            raise SweepError(
                f"designs[{index}]: provide exactly one of 'text' and 'path'"
            )
        if "path" in entry:
            return _resolve_design(str(entry["path"]), index)
        design = textio.loads(str(entry["text"]))
        return design.name, textio.dumps(design)
    if not isinstance(entry, str) or not entry:
        raise SweepError(
            f"designs[{index}] must be a builtin name, a netlist path or a "
            f"dict, got {entry!r}"
        )
    if os.sep in entry or entry.endswith(".rtl") or os.path.exists(entry):
        try:
            with open(entry, "r", encoding="utf-8") as fh:
                design = textio.loads(fh.read())
        except OSError as exc:
            raise SweepError(f"designs[{index}]: cannot read {entry!r}: {exc}") from exc
        return design.name, textio.dumps(design)
    try:
        design = builtin_design(entry)
    except ReproError as exc:
        raise SweepError(f"designs[{index}]: {exc}") from exc
    return design.name, textio.dumps(design)


def _float_axis(name: str, values, default: float) -> Tuple[float, ...]:
    if values is None:
        return (default,)
    if isinstance(values, (int, float)) and not isinstance(values, bool):
        values = [values]
    if not isinstance(values, (list, tuple)) or not values:
        raise SweepError(f"{name} must be a number or a non-empty list")
    out = []
    for value in values:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SweepError(f"{name} entries must be numbers, got {value!r}")
        if value < 0:
            raise SweepError(f"{name} entries must be >= 0, got {value}")
        out.append(float(value))
    if len(set(out)) != len(out):
        raise SweepError(f"duplicate {name} values: {out}")
    return tuple(out)


@dataclass(frozen=True)
class SweepSpec:
    """The declarative grid: every axis a tuple, every field validated.

    ``designs`` entries are builtin names/aliases, netlist file paths or
    ``{"text"/"path": ...}`` dicts; ``stimuli`` entries are stimulus
    specs (``None``, a profile name, or a profile/trace dict — see
    :func:`repro.sim.stimulus.normalize_stimulus_spec`); ``pass_lists``
    entries are ordered lists of registered pass names; ``h_min`` /
    ``omega_p`` / ``omega_a`` are the cost-grid axes; ``run`` is a
    partial :class:`RunConfig` dict shared by every point.
    """

    designs: Tuple[object, ...]
    stimuli: Tuple[Optional[dict], ...] = (None,)
    pass_lists: Tuple[Tuple[str, ...], ...] = (("isolation",),)
    styles: Tuple[str, ...] = ("and",)
    h_min: Tuple[float, ...] = (0.0,)
    omega_p: Tuple[float, ...] = (1.0,)
    omega_a: Tuple[float, ...] = (0.25,)
    run: dict = field(default_factory=dict)
    name: str = "sweep"

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Mapping) -> "SweepSpec":
        """Validate a JSON form loudly; unknown fields are errors."""
        if not isinstance(payload, Mapping):
            raise SweepError(f"sweep spec must be an object, got {type(payload).__name__}")
        unknown = set(payload) - _SPEC_FIELDS
        if unknown:
            raise SweepError(
                f"unknown sweep spec field(s) {sorted(unknown)}; "
                f"allowed: {sorted(_SPEC_FIELDS)}"
            )
        designs = payload.get("designs")
        if not isinstance(designs, (list, tuple)) or not designs:
            raise SweepError("sweep spec needs a non-empty 'designs' list")
        stimuli_raw = payload.get("stimuli")
        if stimuli_raw is None:
            stimuli_raw = [None]
        if not isinstance(stimuli_raw, (list, tuple)) or not stimuli_raw:
            raise SweepError("'stimuli' must be a non-empty list (null entries ok)")
        stimuli = tuple(normalize_stimulus_spec(s) for s in stimuli_raw)
        pass_lists_raw = payload.get("pass_lists")
        if pass_lists_raw is None:
            pass_lists_raw = [["isolation"]]
        if not isinstance(pass_lists_raw, (list, tuple)) or not pass_lists_raw:
            raise SweepError("'pass_lists' must be a non-empty list of pass lists")
        from repro.opt import available_passes

        known = available_passes()
        pass_lists: List[Tuple[str, ...]] = []
        for i, entry in enumerate(pass_lists_raw):
            if isinstance(entry, str):
                entry = [p for p in entry.split("+") if p]
            if not isinstance(entry, (list, tuple)) or not entry:
                raise SweepError(f"pass_lists[{i}] must be a non-empty pass list")
            for name in entry:
                if name not in known:
                    raise SweepError(
                        f"pass_lists[{i}]: unknown pass {name!r}; "
                        f"choose from {known}"
                    )
            if len(set(entry)) != len(entry):
                raise SweepError(f"pass_lists[{i}]: duplicate pass names")
            pass_lists.append(tuple(entry))
        styles_raw = payload.get("styles") or ["and"]
        if isinstance(styles_raw, str):
            styles_raw = [styles_raw]
        for style in styles_raw:
            if style not in ("and", "or", "latch", "auto"):
                raise SweepError(
                    f"unknown style {style!r}; choose from and/or/latch/auto"
                )
        run = dict(payload.get("run") or {})
        if run:
            try:
                RunConfig.from_dict(run)  # loud unknown-field rejection
            except Exception as exc:
                raise SweepError(f"sweep 'run': {exc}") from exc
        return cls(
            designs=tuple(designs),
            stimuli=stimuli,
            pass_lists=tuple(pass_lists),
            styles=tuple(styles_raw),
            h_min=_float_axis("h_min", payload.get("h_min"), 0.0),
            omega_p=_float_axis("omega_p", payload.get("omega_p"), 1.0),
            omega_a=_float_axis("omega_a", payload.get("omega_a"), 0.25),
            run=run,
            name=str(payload.get("name") or "sweep"),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "designs": list(self.designs),
            "stimuli": [s for s in self.stimuli],
            "pass_lists": [list(p) for p in self.pass_lists],
            "styles": list(self.styles),
            "h_min": list(self.h_min),
            "omega_p": list(self.omega_p),
            "omega_a": list(self.omega_a),
            "run": dict(self.run),
        }

    def fingerprint(self) -> str:
        """Digest of the canonical spec (store provenance records)."""
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()[:16]

    @property
    def size(self) -> int:
        """Grid cardinality without expanding designs."""
        return (
            len(self.designs)
            * len(self.stimuli)
            * len(self.pass_lists)
            * len(self.styles)
            * len(self.h_min)
            * len(self.omega_p)
            * len(self.omega_a)
        )

    # ------------------------------------------------------------------
    def expand(self) -> List[SweepPoint]:
        """Multiply the axes into deterministic, content-addressed points.

        Every run field is fully resolved (a complete ``RunConfig``
        dict, ``trace`` forced off) so a point dispatched inline, over
        HTTP, or against a service with different defaults lands on the
        same cache key.
        """
        try:
            run_cfg = RunConfig().replace(**self.run).replace(trace=False)
        except Exception as exc:
            raise SweepError(f"sweep 'run': {exc}") from exc
        run_dict = run_cfg.to_dict()
        run_fp = run_cfg.fingerprint()
        resolved = []
        seen_fps = {}
        for i, entry in enumerate(self.designs):
            name, text = _resolve_design(entry, i)
            fp = design_fingerprint(textio.loads(text))
            if fp in seen_fps:
                raise SweepError(
                    f"designs[{i}] ({name!r}) is structurally identical to "
                    f"designs[{seen_fps[fp]}]; duplicate axis entries would "
                    f"collapse to one stored point"
                )
            seen_fps[fp] = i
            resolved.append((name, text, fp))
        points: List[SweepPoint] = []
        grid = itertools.product(
            resolved,
            self.stimuli,
            self.pass_lists,
            self.styles,
            self.h_min,
            self.omega_p,
            self.omega_a,
        )
        for index, (design, stim, passes, style, h, wp, wa) in enumerate(grid):
            name, text, fp = design
            params = {
                "passes": list(passes),
                "style": style,
                "h_min": h,
                "omega_p": wp,
                "omega_a": wa,
            }
            key = job_cache_key(
                SWEEP_METHOD, fp, run_fp, params, stimulus_fingerprint(stim)
            )
            points.append(
                SweepPoint(
                    index=index,
                    design_name=name,
                    design_text=text,
                    design_fingerprint=fp,
                    stimulus=stim,
                    passes=passes,
                    style=style,
                    h_min=h,
                    omega_p=wp,
                    omega_a=wa,
                    run=run_dict,
                    key=key,
                )
            )
        return points
