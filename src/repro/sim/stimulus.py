"""Stimulus generators.

A stimulus maps a cycle number to values for every primary input. The
paper's experiments need precise control over *control-signal
statistics*: the static probability and toggle rate of activation-related
signals (Section 6 sweeps both). :class:`ControlStream` provides exactly
that via a two-state Markov chain whose stationary distribution and
expected transition rate match the requested statistics.

Beyond the synthetic default, this module ships **workload profiles** —
named stimulus families covering the regimes where operand isolation
wins or loses: ``bursty`` (active bursts separated by idle gaps),
``idle`` (mostly-quiescent datapaths where isolation overhead dominates),
``correlated`` (low-Hamming-distance random walks), and the baseline
``random``. Profiles are registered in :data:`STIMULUS_PROFILES` and
addressable by name from the CLI, the serve layer, and ``repro.sweep``
via :func:`resolve_stimulus_spec`; :func:`stimulus_fingerprint` turns a
spec into the stable digest that keys the content-addressed caches.
"""

from __future__ import annotations

import hashlib
import json
import random
import warnings
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
)

import numpy as np

from repro.errors import SimulationError, StimulusError
from repro.netlist.design import Design


class Stimulus(Protocol):
    """Anything that can produce primary-input values per cycle."""

    def values(self, cycle: int) -> Mapping[str, int]:
        """Values for every primary input at the given cycle."""
        ...  # pragma: no cover - protocol


class _Stream:
    """One named input's value generator."""

    def next_value(self, rng: random.Random) -> int:
        raise NotImplementedError


class DataStream(_Stream):
    """A data bus stream with a controllable per-bit toggle density.

    Each cycle every bit flips independently with probability
    ``toggle_density`` (1.0 gives fresh uniform randomness each cycle via
    repeated flips being equivalent to... not uniform; use
    ``uniform=True`` for i.i.d. uniform words instead).
    """

    def __init__(
        self,
        width: int,
        toggle_density: float = 0.5,
        uniform: bool = False,
        initial: int = 0,
    ) -> None:
        if not 0.0 <= toggle_density <= 1.0:
            raise StimulusError(f"toggle_density must be in [0,1], got {toggle_density}")
        self.width = width
        self.toggle_density = toggle_density
        self.uniform = uniform
        self.value = initial & ((1 << width) - 1)

    def next_value(self, rng: random.Random) -> int:
        if self.uniform:
            self.value = rng.getrandbits(self.width)
            return self.value
        flips = 0
        for bit in range(self.width):
            if rng.random() < self.toggle_density:
                flips |= 1 << bit
        self.value ^= flips
        return self.value


class ControlStream(_Stream):
    """A one-bit control stream with target static probability & toggle rate.

    Modelled as a two-state Markov chain with transition probabilities
    ``a = P(1->0)`` and ``b = P(0->1)``. Stationary one-probability is
    ``b/(a+b)`` and the expected toggles per cycle is ``2ab/(a+b)``.
    Solving for a requested ``(p, toggle_rate)`` gives ``a = t/(2p)`` and
    ``b = t/(2(1-p))``, which is feasible iff ``t <= 2*min(p, 1-p)``.
    """

    def __init__(self, probability: float, toggle_rate: Optional[float] = None) -> None:
        if not 0.0 <= probability <= 1.0:
            raise StimulusError(f"probability must be in [0,1], got {probability}")
        if toggle_rate is None:
            # Memoryless: independent Bernoulli draws each cycle.
            toggle_rate = 2.0 * probability * (1.0 - probability)
        limit = 2.0 * min(probability, 1.0 - probability)
        if toggle_rate < 0.0 or toggle_rate > limit + 1e-12:
            raise StimulusError(
                f"toggle_rate {toggle_rate} infeasible for probability "
                f"{probability} (max {limit})"
            )
        self.probability = probability
        self.toggle_rate = toggle_rate
        if probability in (0.0, 1.0) or toggle_rate == 0.0:
            self._a = self._b = 0.0
            self.value = int(probability >= 0.5)
        else:
            self._a = toggle_rate / (2.0 * probability)
            self._b = toggle_rate / (2.0 * (1.0 - probability))
            self.value = 1 if probability >= 0.5 else 0

    def next_value(self, rng: random.Random) -> int:
        if self.value:
            if rng.random() < self._a:
                self.value = 0
        else:
            if rng.random() < self._b:
                self.value = 1
        return self.value


class ConstantStream(_Stream):
    """A stream pinned to one value."""

    def __init__(self, value: int) -> None:
        self.value = value

    def next_value(self, rng: random.Random) -> int:
        return self.value


class BurstyDataStream(_Stream):
    """Active bursts separated by idle gaps — DMA / packet traffic.

    A two-state Markov chain over BURST and IDLE phases: inside a burst
    every bit flips with ``toggle_density`` each cycle; inside a gap the
    bus freezes at its last value. Expected phase lengths are
    ``burst_len`` and ``idle_len`` cycles, so the long-run activity duty
    cycle is ``burst_len / (burst_len + idle_len)``. This is the regime
    where operand isolation pays for itself: long idle stretches with
    the functional unit's inputs still wiggling upstream.
    """

    def __init__(
        self,
        width: int,
        burst_len: float = 8.0,
        idle_len: float = 24.0,
        toggle_density: float = 0.9,
        initial: int = 0,
    ) -> None:
        if burst_len < 1.0 or idle_len < 1.0:
            raise StimulusError(
                f"burst_len/idle_len must be >= 1, got {burst_len}/{idle_len}"
            )
        if not 0.0 <= toggle_density <= 1.0:
            raise StimulusError(f"toggle_density must be in [0,1], got {toggle_density}")
        self.width = width
        self.toggle_density = toggle_density
        # P(leave phase) = 1/expected_length — geometric phase durations.
        self._exit_burst = 1.0 / burst_len
        self._exit_idle = 1.0 / idle_len
        self.bursting = False
        self.value = initial & ((1 << width) - 1)

    def next_value(self, rng: random.Random) -> int:
        if rng.random() < (self._exit_burst if self.bursting else self._exit_idle):
            self.bursting = not self.bursting
        if self.bursting:
            flips = 0
            for bit in range(self.width):
                if rng.random() < self.toggle_density:
                    flips |= 1 << bit
            self.value ^= flips
        return self.value


class CorrelatedDataStream(_Stream):
    """A bounded random walk: successive samples differ by small steps.

    Models sensor/audio-style data where consecutive words are strongly
    correlated — low Hamming distance between cycles, so the high-order
    bits almost never toggle. ``max_step`` bounds the per-cycle delta and
    ``hold_probability`` is the chance a cycle repeats the previous word
    exactly. Isolation gains little here even at low duty cycles: the
    datapath's switched capacitance per cycle is already small.
    """

    def __init__(
        self,
        width: int,
        max_step: int = 3,
        hold_probability: float = 0.25,
        initial: Optional[int] = None,
    ) -> None:
        if max_step < 1:
            raise StimulusError(f"max_step must be >= 1, got {max_step}")
        if not 0.0 <= hold_probability <= 1.0:
            raise StimulusError(
                f"hold_probability must be in [0,1], got {hold_probability}"
            )
        self.width = width
        self.max_step = max_step
        self.hold_probability = hold_probability
        self._mask = (1 << width) - 1
        self.value = (self._mask >> 1) if initial is None else initial & self._mask

    def next_value(self, rng: random.Random) -> int:
        if rng.random() >= self.hold_probability:
            step = rng.randint(-self.max_step, self.max_step)
            self.value = (self.value + step) & self._mask
        return self.value


class CompositeStimulus:
    """Per-input streams with a shared seeded RNG.

    Streams are advanced exactly once per cycle in input-name order, so a
    run is reproducible for a given seed regardless of how the simulator
    queries values.
    """

    def __init__(self, streams: Mapping[str, _Stream], seed: int = 0) -> None:
        self._streams = dict(streams)
        self._rng = random.Random(seed)
        self._cycle = -1
        self._current: Dict[str, int] = {}

    def values(self, cycle: int) -> Mapping[str, int]:
        if cycle != self._cycle:
            self._cycle = cycle
            for name in sorted(self._streams):
                self._current[name] = self._streams[name].next_value(self._rng)
        return self._current

    def stream(self, name: str) -> _Stream:
        return self._streams[name]


class SequenceStimulus:
    """Directed stimulus: an explicit list of per-cycle input maps.

    When the simulation runs longer than the sequence, the behaviour is
    explicit rather than silent: ``wrap=True`` cycles through from the
    start; ``strict=True`` raises a :class:`StimulusError` naming the
    first out-of-range cycle; otherwise the last vector is held, with a
    one-shot ``RuntimeWarning`` when ``warn=True`` (the default for
    recorded CSV/VCD traces, where holding usually means the run and the
    recording silently disagree about length).
    """

    def __init__(
        self,
        vectors: Sequence[Mapping[str, int]],
        wrap: bool = False,
        strict: bool = False,
        warn: bool = False,
        label: str = "stimulus sequence",
    ) -> None:
        if not vectors:
            raise StimulusError("SequenceStimulus needs at least one vector")
        if wrap and strict:
            raise StimulusError("wrap=True and strict=True are mutually exclusive")
        self.vectors = [dict(v) for v in vectors]
        self.wrap = wrap
        self.strict = strict
        self.warn = warn
        self.label = label
        self._warned = False

    @classmethod
    def from_csv(
        cls,
        text: str,
        wrap: bool = False,
        strict: bool = False,
        warn: bool = True,
    ) -> "SequenceStimulus":
        """Parse a CSV trace: header row of input names, one row per cycle.

        An optional leading ``cycle`` column is ignored, so traces written
        by :meth:`repro.sim.trace.NetTrace.to_csv` replay directly.
        Values may be decimal or ``0x``-prefixed hexadecimal.
        """
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if len(lines) < 2:
            raise StimulusError("CSV trace needs a header and at least one row")
        header = [name.strip() for name in lines[0].split(",")]
        skip_first = header and header[0].lower() == "cycle"
        names = header[1:] if skip_first else header
        vectors = []
        for lineno, line in enumerate(lines[1:], start=2):
            fields = [field.strip() for field in line.split(",")]
            if skip_first:
                fields = fields[1:]
            if len(fields) != len(names):
                raise StimulusError(
                    f"CSV trace line {lineno}: expected {len(names)} values, "
                    f"got {len(fields)}"
                )
            try:
                vectors.append(
                    {name: int(value, 0) for name, value in zip(names, fields)}
                )
            except ValueError as exc:
                raise StimulusError(f"CSV trace line {lineno}: {exc}") from exc
        return cls(vectors, wrap=wrap, strict=strict, warn=warn, label="CSV trace")

    @classmethod
    def from_csv_file(
        cls,
        path: str,
        wrap: bool = False,
        strict: bool = False,
        warn: bool = True,
    ) -> "SequenceStimulus":
        """Read :meth:`from_csv` input from a file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_csv(handle.read(), wrap=wrap, strict=strict, warn=warn)

    def values(self, cycle: int) -> Mapping[str, int]:
        count = len(self.vectors)
        if cycle < count:
            return self.vectors[cycle]
        if self.wrap:
            return self.vectors[cycle % count]
        if self.strict:
            raise StimulusError(
                f"{self.label} ends at cycle {count - 1} but cycle {cycle} "
                f"was requested; pass wrap=True to repeat it or shorten the run"
            )
        if self.warn and not self._warned:
            self._warned = True
            warnings.warn(
                f"{self.label} holds {count} vector(s) but the run reached "
                f"cycle {cycle}; repeating the last vector (wrap=True cycles "
                f"through the trace instead)",
                RuntimeWarning,
                stacklevel=2,
            )
        return self.vectors[-1]


class StimulusTable:
    """Primary-input vectors drawn once from a stimulus, for replay.

    :meth:`draw` queries a stimulus for cycles ``0 .. length - 1`` in
    order, as a simulator run from reset does, and keeps each primary
    input's value masked to the input's width in one ``(length ×
    inputs)`` array. Replaying the table drives a design bit for bit like
    the stimulus it was drawn from: :func:`repro.opt.optimize` draws once
    per call and every estimation run of the call replays the table.
    """

    def __init__(self, names: Sequence[str], rows: np.ndarray) -> None:
        self.names = tuple(names)
        self.rows = rows

    @classmethod
    def draw(cls, stimulus: "Stimulus", design: Design, length: int) -> "StimulusTable":
        """Draw ``length`` cycles of ``stimulus`` for ``design``'s inputs.

        A vector that lacks one of the design's inputs raises the
        :class:`~repro.errors.SimulationError` a simulator would, naming
        the input and the cycle.
        """
        inputs = [(pi.name, pi.net("Y").mask) for pi in design.primary_inputs]
        wide = any(mask >> 64 for _, mask in inputs)
        rows = np.empty((length, len(inputs)), dtype=object if wide else np.uint64)
        for cycle in range(length):
            vector = stimulus.values(cycle)
            try:
                rows[cycle] = [vector[name] & mask for name, mask in inputs]
            except KeyError as exc:
                raise SimulationError(
                    f"stimulus provides no value for primary input "
                    f"{exc.args[0]!r} at cycle {cycle}"
                ) from None
        return cls([name for name, _ in inputs], rows)

    def values(self, cycle: int) -> Mapping[str, int]:
        return dict(zip(self.names, self.rows[cycle].tolist()))


def random_stimulus(
    design: Design,
    seed: int = 0,
    control_probability: float = 0.5,
    control_toggle_rate: Optional[float] = None,
    data_toggle_density: float = 0.5,
    overrides: Optional[Mapping[str, _Stream]] = None,
) -> CompositeStimulus:
    """A sensible default stimulus for a whole design.

    One-bit inputs become :class:`ControlStream`; wider inputs become
    :class:`DataStream`. ``overrides`` replaces the stream of specific
    inputs (e.g. to sweep one activation signal's statistics).
    """
    streams: Dict[str, _Stream] = {}
    for pi in design.primary_inputs:
        width = pi.net("Y").width
        if width == 1:
            streams[pi.name] = ControlStream(control_probability, control_toggle_rate)
        else:
            streams[pi.name] = DataStream(width, toggle_density=data_toggle_density)
    if overrides:
        for name, stream in overrides.items():
            if name not in streams:
                raise StimulusError(f"override for unknown input {name!r}")
            streams[name] = stream
    return CompositeStimulus(streams, seed=seed)


# ----------------------------------------------------------------------
# Workload profiles
# ----------------------------------------------------------------------
ProfileFactory = Callable[..., "Stimulus"]

#: Registry of named workload profiles: name -> factory(design, seed, **params).
STIMULUS_PROFILES: Dict[str, ProfileFactory] = {}


def register_profile(name: str) -> Callable[[ProfileFactory], ProfileFactory]:
    """Register a workload profile factory under ``name``.

    Factories take ``(design, seed=0, **params)`` and return a stimulus.
    Registered profiles are addressable from the CLI (``--profile``),
    the serve layer (the job's ``stimulus`` field) and sweep specs.
    """

    def decorate(factory: ProfileFactory) -> ProfileFactory:
        if name in STIMULUS_PROFILES:
            raise StimulusError(f"stimulus profile {name!r} already registered")
        STIMULUS_PROFILES[name] = factory
        return factory

    return decorate


def profile_names() -> List[str]:
    """Registered profile names, sorted."""
    return sorted(STIMULUS_PROFILES)


def make_profile(name: str, design: Design, seed: int = 0, **params) -> "Stimulus":
    """Instantiate the named profile for a design."""
    try:
        factory = STIMULUS_PROFILES[name]
    except KeyError:
        raise StimulusError(
            f"unknown stimulus profile {name!r}; registered: {profile_names()}"
        ) from None
    try:
        return factory(design, seed=seed, **params)
    except TypeError as exc:
        raise StimulusError(f"profile {name!r}: {exc}") from exc


@register_profile("random")
def _profile_random(
    design: Design,
    seed: int = 0,
    control_probability: float = 0.5,
    control_toggle_rate: Optional[float] = None,
    data_toggle_density: float = 0.5,
) -> CompositeStimulus:
    """The historical default: uncorrelated half-density traffic."""
    return random_stimulus(
        design,
        seed=seed,
        control_probability=control_probability,
        control_toggle_rate=control_toggle_rate,
        data_toggle_density=data_toggle_density,
    )


@register_profile("bursty")
def _profile_bursty(
    design: Design,
    seed: int = 0,
    burst_len: float = 8.0,
    idle_len: float = 24.0,
    toggle_density: float = 0.9,
    control_probability: float = 0.5,
) -> CompositeStimulus:
    """DMA/packet traffic: dense bursts separated by frozen gaps.

    Control lines keep moving through the gaps (matching the paper's
    observation that activation logic stays live while data idles), so
    isolation's latches have real work to do.
    """
    streams: Dict[str, _Stream] = {}
    for pi in design.primary_inputs:
        width = pi.net("Y").width
        if width == 1:
            streams[pi.name] = ControlStream(control_probability)
        else:
            streams[pi.name] = BurstyDataStream(
                width,
                burst_len=burst_len,
                idle_len=idle_len,
                toggle_density=toggle_density,
            )
    return CompositeStimulus(streams, seed=seed)


@register_profile("idle")
def _profile_idle(
    design: Design,
    seed: int = 0,
    duty: float = 0.1,
    data_toggle_density: float = 0.15,
) -> CompositeStimulus:
    """Mostly-quiescent datapath: low activation duty, sparse data.

    Control lines sit at a low static probability (the unit is rarely
    selected) and data buses toggle sparsely. Isolation overhead — the
    latches and AND gates themselves — dominates in this regime, so
    net savings can go negative; exactly the workload where the paper's
    h_min profitability threshold earns its keep.
    """
    if not 0.0 < duty < 1.0:
        raise StimulusError(f"duty must be in (0,1), got {duty}")
    streams: Dict[str, _Stream] = {}
    for pi in design.primary_inputs:
        width = pi.net("Y").width
        if width == 1:
            streams[pi.name] = ControlStream(duty)
        else:
            streams[pi.name] = DataStream(width, toggle_density=data_toggle_density)
    return CompositeStimulus(streams, seed=seed)


@register_profile("correlated")
def _profile_correlated(
    design: Design,
    seed: int = 0,
    max_step: int = 3,
    hold_probability: float = 0.25,
    control_probability: float = 0.5,
) -> CompositeStimulus:
    """Sensor/audio traffic: successive words nearly identical."""
    streams: Dict[str, _Stream] = {}
    for pi in design.primary_inputs:
        width = pi.net("Y").width
        if width == 1:
            streams[pi.name] = ControlStream(control_probability)
        else:
            streams[pi.name] = CorrelatedDataStream(
                width, max_step=max_step, hold_probability=hold_probability
            )
    return CompositeStimulus(streams, seed=seed)


# ----------------------------------------------------------------------
# Stimulus specs: the serializable form used by serve/sweep/CLI
# ----------------------------------------------------------------------
def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def normalize_stimulus_spec(spec) -> Optional[Dict[str, object]]:
    """Validate and canonicalize a stimulus spec.

    Accepted forms (all JSON-serializable, so they travel over the serve
    wire and into sweep stores unchanged):

    - ``None`` — the default seeded :func:`random_stimulus`.
    - ``"name"`` or ``{"profile": name, "params": {...}}`` — a
      registered workload profile.
    - ``{"csv": text, "wrap": bool, "strict": bool}`` — a recorded CSV
      trace replayed via :meth:`SequenceStimulus.from_csv`.
    - ``{"vcd": text, "wrap": bool, "strict": bool, "inputs": {...}}``
      — a recorded VCD document replayed via
      :class:`repro.sim.vcd.VcdStimulus`.

    Returns ``None`` for the default, else a canonical dict.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        spec = {"profile": spec}
    if not isinstance(spec, Mapping):
        raise StimulusError(
            f"stimulus spec must be null, a profile name, or an object; "
            f"got {type(spec).__name__}"
        )
    kinds = [key for key in ("profile", "csv", "vcd") if key in spec]
    if len(kinds) != 1:
        raise StimulusError(
            f"stimulus spec needs exactly one of 'profile'/'csv'/'vcd'; "
            f"got keys {sorted(spec)}"
        )
    kind = kinds[0]
    if kind == "profile":
        name = spec["profile"]
        if name not in STIMULUS_PROFILES:
            raise StimulusError(
                f"unknown stimulus profile {name!r}; registered: {profile_names()}"
            )
        params = dict(spec.get("params") or {})
        allowed = {"profile", "params"}
        out: Dict[str, object] = {"profile": name}
        if params:
            out["params"] = params
    else:
        text = spec[kind]
        if not isinstance(text, str) or not text.strip():
            raise StimulusError(f"stimulus spec {kind!r} must be non-empty text")
        allowed = {kind, "wrap", "strict"} | ({"inputs"} if kind == "vcd" else set())
        out = {kind: text}
        for flag in ("wrap", "strict"):
            if spec.get(flag):
                out[flag] = True
        if kind == "vcd" and spec.get("inputs"):
            out["inputs"] = dict(spec["inputs"])
    unknown = set(spec) - allowed
    if unknown:
        raise StimulusError(
            f"stimulus spec has unknown field(s) {sorted(unknown)}; "
            f"allowed for {kind!r}: {sorted(allowed)}"
        )
    try:
        _canonical(out)
    except (TypeError, ValueError) as exc:
        raise StimulusError(f"stimulus spec is not JSON-serializable: {exc}") from exc
    return out


def stimulus_fingerprint(spec) -> str:
    """A stable digest of a stimulus spec, for content-addressed caches.

    ``None`` (the default random stimulus) fingerprints as the literal
    ``"default"`` so every cache key minted before stimulus specs
    existed stays valid. Trace bodies (CSV/VCD text) are folded in as
    their sha256, keeping keys short while still separating any two
    distinct recordings.
    """
    normalized = normalize_stimulus_spec(spec)
    if normalized is None:
        return "default"
    reduced = dict(normalized)
    for kind in ("csv", "vcd"):
        if kind in reduced:
            reduced[kind] = hashlib.sha256(
                str(reduced[kind]).encode("utf-8")
            ).hexdigest()
    return hashlib.sha256(_canonical(reduced).encode("utf-8")).hexdigest()[:32]


def resolve_stimulus_spec(spec, design: Design, seed: int = 0) -> "Stimulus":
    """Build the stimulus a spec describes for a concrete design.

    ``seed`` (normally :attr:`repro.runconfig.RunConfig.seed`) feeds the
    profile RNG; recorded traces ignore it, as replaying a trace is
    deterministic by construction.
    """
    normalized = normalize_stimulus_spec(spec)
    if normalized is None:
        return random_stimulus(design, seed=seed)
    if "profile" in normalized:
        params = dict(normalized.get("params") or {})
        return make_profile(str(normalized["profile"]), design, seed=seed, **params)
    if "csv" in normalized:
        return SequenceStimulus.from_csv(
            str(normalized["csv"]),
            wrap=bool(normalized.get("wrap")),
            strict=bool(normalized.get("strict")),
        )
    from repro.sim.vcd import VcdStimulus, read_vcd  # local: vcd imports us

    trace = read_vcd(str(normalized["vcd"]))
    return VcdStimulus(
        trace,
        design,
        inputs=normalized.get("inputs"),
        wrap=bool(normalized.get("wrap")),
        strict=bool(normalized.get("strict")),
    )
