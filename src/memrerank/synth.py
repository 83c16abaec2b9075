"""Deterministic synthetic scenarios and scripted backends.

A scenario scripts a timeline of labeled events per video; queries target
a subset of those events in start order, candidates are jittered copies
of the target plus distractors drawn from other events. The scripted
backends answer narration requests from the event script (reading the
request's video id and clip bounds) and selection requests by label
matching (stub) or by ground-truth IoU argmax (oracle), so full
pipelines run without videos or a remote model.

The scenario file holds only what the annotations and candidates files do
not: the knobs and the event script. The stub narrates from the script,
loaded and checked against the annotations. Both selectors read the
fields of the :class:`~memrerank.rerank.SelectionPrompt`, never its
text: the stub its query's text and its memories, the oracle its
candidate list and its query's ground truth.
"""

from __future__ import annotations

import random
import re
import threading
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Mapping

from .core import (
    NUMBER,
    CandidateList,
    CandidateSegment,
    Query,
    TimeInterval,
    canonical_order,
    check_ranges,
    checked,
    interval_of,
    setting,
)
from .errors import MissingGroundTruth, SchemaViolation
from .ingest import Dataset, Track, VideoRecord, read_json_file, write_json_file
from .metrics import temporal_iou
from .narration import Backend, BackendRequest
from .rerank import SelectionPrompt

SCENARIO_VERSION = "scenario-3"

_EVENT_IN_QUERY = re.compile(r"\bevent (e\d+)\b")


@dataclass(frozen=True, slots=True)
class ScenarioKnobs:
    """Size and difficulty controls for scenario generation, with their flags and ranges."""

    num_videos: int = setting("--videos", default=3, range=(1, 1000))  # ids v000 to v999
    # A video costs queries² × candidates: distractors are drawn from all its events.
    queries_per_video: int = setting("--queries-per-video", default=4, range=(1, 100))
    candidates_per_query: int = setting("--candidates-per-query", default=5, range=(1, 100))
    recall_rho: float = setting("--recall-rho", default=0.8, range=(0, 1))
    jitter_s: float = setting("--jitter", default=2.0, range=(0, None))
    latent_positive_rate: float = setting("--latent-rate", default=0.1, range=(0, 1))

    def __post_init__(self):
        check_ranges(self)


@dataclass(frozen=True, slots=True)
class ScriptedEvent:
    interval: TimeInterval
    label: str


# The scripted events of each video, by video id, in start order.
EventScript = Mapping[str, tuple[ScriptedEvent, ...]]


@dataclass(frozen=True, slots=True)
class Scenario:
    """A replayable synthetic benchmark instance. A query's latent twin is
    a scripted event other than its target that carries the target's label."""

    seed: int
    knobs: ScenarioKnobs
    dataset: Dataset
    event_script: EventScript
    candidates: tuple[CandidateList, ...]


def query_text(query_id: str, label: str) -> str:
    """Synthetic query wording; carries its id and target event label."""
    return f"[{query_id}] locate the step matching event {label}"


def _shifted(interval: TimeInterval, shift: float) -> TimeInterval:
    start = max(0.0, interval.start_s + shift)
    return TimeInterval(start, start + interval.duration_s)


def generate_scenario(
    knobs: ScenarioKnobs, seed: int, track: Track = Track.GOALSTEP
) -> Scenario:
    """Deterministic scenario for (knobs, seed).

    Ground-truth intervals are ordered by start within each video, so the
    sequential start-time prior holds by construction. A jittered copy of
    the ground truth (guaranteed IoU >= 0.5) appears in a query's
    candidates with probability ``recall_rho``; the remaining candidates
    are jittered copies of other events. A distractor's IoU with the ground
    truth is below 1/3 for any seed and knobs: it is shifted by at most a
    third of its own length, and events are at least 3 s apart, so it
    overlaps the target by less than a third of its own length.
    """
    rng = random.Random(seed)
    videos = []
    script: dict[str, tuple[ScriptedEvent, ...]] = {}
    all_lists: list[CandidateList] = []
    num_queries = knobs.queries_per_video
    num_candidates = knobs.candidates_per_query

    for v in range(knobs.num_videos):
        video_id = f"v{v:03d}"
        num_events = num_queries + 4
        events = []
        t = rng.uniform(5.0, 20.0)
        for j in range(num_events):
            length = rng.uniform(8.0, 30.0)
            events.append(ScriptedEvent(TimeInterval(t, t + length), f"e{j}"))
            t += length + rng.uniform(3.0, 12.0)
        duration = t + rng.uniform(5.0, 20.0)

        target_indices = sorted(rng.sample(range(num_events), num_queries))
        labels = {j: event.label for j, event in enumerate(events)}
        queries = []
        twinned: set[int] = set()

        for i, target_idx in enumerate(target_indices):
            query_id = f"{video_id}-q{i:03d}"
            target = events[target_idx]
            queries.append(
                Query(
                    query_id=query_id,
                    video_id=video_id,
                    text=query_text(query_id, target.label),
                    order_index=i if track is Track.GOALSTEP else None,
                    ground_truth=target.interval,
                )
            )
            if rng.random() < knobs.latent_positive_rate:
                spare = [
                    j
                    for j in range(num_events)
                    if j not in target_indices and j not in twinned
                ]
                if spare:
                    twin_idx = rng.choice(spare)
                    twinned.add(twin_idx)
                    labels[twin_idx] = target.label

            gt = target.interval
            is_hit = rng.random() < knobs.recall_rho
            segments = []
            if is_hit:
                max_shift = min(knobs.jitter_s, gt.duration_s / 3.0 * 0.9)
                positive = _shifted(gt, rng.uniform(-max_shift, max_shift))
                segments.append(positive)
            while len(segments) < num_candidates:
                other_idx = rng.choice(
                    [j for j in range(num_events) if j != target_idx]
                )
                other = events[other_idx].interval
                max_shift = min(knobs.jitter_s, other.duration_s / 3.0)
                segments.append(_shifted(other, rng.uniform(-max_shift, max_shift)))

            noise = min(1.0, knobs.jitter_s)
            candidates = [
                CandidateSegment(iv, temporal_iou(iv, gt) + noise * rng.random())
                for iv in segments
            ]
            all_lists.append(CandidateList(video_id, query_id, canonical_order(candidates)))

        script[video_id] = tuple(
            ScriptedEvent(event.interval, labels[j]) for j, event in enumerate(events)
        )
        videos.append(VideoRecord(video_id, duration, tuple(queries)))

    return Scenario(
        seed=seed,
        knobs=knobs,
        dataset=Dataset(track=track, videos=tuple(videos)),
        event_script=script,
        candidates=tuple(all_lists),
    )


class ScriptedStubBackend(Backend):
    """Answers narration requests from the event script and selection
    prompts by matching their query's target event label, as
    :func:`query_text` writes it, against their candidates' memories.
    Never touches pixel data.

    ``load_script`` is called once, when the first narration request
    arrives, so a stage whose clips are all cached, or that only selects,
    never loads the script."""

    backend_id = "stub"

    def __init__(self, load_script: Callable[[], EventScript]):
        super().__init__()
        self._load_lock = threading.Lock()
        self._load_script = load_script
        self._script: EventScript | None = None

    def _narrate(self, request: BackendRequest) -> str:
        # ``_script`` is set only once loaded, so the lock is taken only
        # while a load may still be due.
        if self._script is None:
            with self._load_lock:
                if self._script is None:
                    self._script = self._load_script()
        overlapping = [
            event.label
            for event in self._script.get(request.video_id, ())
            if event.interval.overlaps(request.clip)
        ]
        return "events: " + ("; ".join(overlapping) if overlapping else "none")

    def _select(self, prompt: SelectionPrompt) -> str:
        label_match = _EVENT_IN_QUERY.search(prompt.query.text)
        if label_match is None:
            return "cannot tell which event is requested"
        pattern = re.compile(rf"\b{re.escape(label_match.group(1))}\b")
        for index, memory in enumerate(prompt.memories, start=1):
            if any(pattern.search(entry.narration) for entry in memory.entries):
                return str(index)
        return "none of the candidates match the query events"


class OracleSelectorBackend(ScriptedStubBackend):
    """Selects the candidate of the prompt's list with the highest IoU
    against its query's ground truth (ties go to the lowest index), or
    abstains, with a reply holding no index, when none overlaps it; it
    narrates as the stub does. Its picks read a ground truth that the
    prompt's text does not hold, so they are never cached."""

    backend_id = "oracle"
    selects_from_prompt = False

    def _ious(self, prompt: SelectionPrompt) -> list[float]:
        """The IoU of each candidate of the prompt's list with its query's ground truth."""
        query = prompt.query
        if query.ground_truth is None:
            raise MissingGroundTruth(
                f"query '{query.query_id}' has no ground truth for the oracle to select by"
            )
        return [temporal_iou(c.interval, query.ground_truth) for c in prompt.clist.candidates]

    def _select(self, prompt: SelectionPrompt) -> str:
        ious = self._ious(prompt)
        if not any(ious):
            return "no candidate overlaps the ground truth"
        best = max(range(len(ious)), key=lambda i: (ious[i], -i))
        return str(best + 1)


def stub_backend(load_script: Callable[[], EventScript]) -> ScriptedStubBackend:
    return ScriptedStubBackend(load_script)


def write_scenario(scenario: Scenario, path: str | Path) -> None:
    """The knobs and event script; ``simulate`` writes the dataset and
    candidates to their own files."""
    write_json_file(
        {
            "version": SCENARIO_VERSION,
            "seed": scenario.seed,
            "track": scenario.dataset.track.value,
            "knobs": asdict(scenario.knobs),
            "event_script": {
                video_id: [
                    {"start_s": e.interval.start_s, "end_s": e.interval.end_s, "label": e.label}
                    for e in events
                ]
                for video_id, events in scenario.event_script.items()
            },
        },
        path,
    )


def load_scenario(path: str | Path, dataset: Dataset) -> EventScript:
    """The event script of the scenario file ``path``, checked against the
    annotations ``dataset``: the file's track must be theirs, and every
    ground truth a scripted event, which catches a scenario of another run."""

    def parse(payload) -> EventScript:
        checked(payload, (dict,), "scenario")
        if payload.get("version") != SCENARIO_VERSION:
            raise ValueError(
                f"expected version {SCENARIO_VERSION!r}, got {payload.get('version')!r}; "
                "re-run simulate"
            )
        checked(payload["seed"], (int,), "seed")
        kinds = {f.name: (int,) if f.type == "int" else NUMBER for f in fields(ScenarioKnobs)}
        raw_knobs = checked(payload["knobs"], (dict,), "knobs")
        if not raw_knobs.keys() <= kinds.keys():
            raise ValueError(f"unknown knobs {sorted(raw_knobs.keys() - kinds.keys())}")
        ScenarioKnobs(**{k: checked(v, kinds[k], f"knob {k}") for k, v in raw_knobs.items()})
        track = Track(payload["track"])
        if track is not dataset.track:
            raise ValueError(
                f"scenario track is {track.value}, annotations are {dataset.track.value}"
            )
        events_by_video = checked(payload["event_script"], (dict,), "event_script")
        script = {
            video_id: tuple(
                ScriptedEvent(interval_of(e), checked(e["label"], (str,), "event label"))
                for e in events
            )
            for video_id, events in sorted(events_by_video.items())
        }
        for query in dataset.iter_queries():
            gt = query.ground_truth
            if gt is not None and not any(e.interval == gt for e in script.get(query.video_id, ())):
                raise SchemaViolation(
                    "event_script",
                    f"ground truth of query '{query.query_id}' missing from script "
                    "(are the scenario and annotations files from one run?)",
                )
        return script

    return read_json_file(path, "scenario file", parse)
