"""Deterministic synthetic scenarios and scripted backends.

A scenario scripts a timeline of labeled events per video; queries target
a subset of those events in start order, candidates are jittered copies
of the target plus distractors drawn from other events. The scripted
backends answer narration requests from the event script (reading the
request's video id and clip bounds) and selection requests by label
matching (stub), by ground-truth IoU argmax (oracle), or by IoU argmin
(adversarial), so full pipelines run without videos or a remote model.

The scenario file holds only what the annotations and candidates files do
not: the knobs, the event script and the latent positives. A stage loads
it over the dataset and top-k candidate lists it already parsed, so the
selectors score the very lists the selection prompts are built from.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .core import (
    CandidateList,
    CandidateSegment,
    Query,
    TimeInterval,
    validate_candidate_list,
)
from .errors import InvalidKnobsError, SchemaViolation
from .ingest import Dataset, Track, VideoRecord, read_json_file, write_json_file
from .metrics import temporal_iou
from .narration import Backend, BackendRequest, BackendResponse
from .rerank import QUERY_LINE_PREFIX

SCENARIO_VERSION = "scenario-2"

_EVENT_IN_QUERY = re.compile(r"\bevent (e\d+)\b")
_QUERY_TAG = re.compile(r"\[([^\]]+)\]")
_CANDIDATE_HEADING_RE = re.compile(r"^Candidate (\d+)$")


@dataclass(frozen=True, slots=True)
class ScenarioKnobs:
    """Size and difficulty controls for scenario generation."""

    num_videos: int = 3
    queries_per_video: int = 4
    candidates_per_query: int = 5
    recall_rho: float = 0.8
    jitter_s: float = 2.0
    latent_positive_rate: float = 0.1

    def __post_init__(self):
        if self.num_videos < 1:
            raise InvalidKnobsError(f"num_videos must be >= 1, got {self.num_videos}")
        if self.queries_per_video < 1:
            raise InvalidKnobsError(
                f"queries_per_video must be >= 1, got {self.queries_per_video}"
            )
        if self.candidates_per_query < 1:
            raise InvalidKnobsError(
                f"candidates_per_query must be >= 1, got {self.candidates_per_query}"
            )
        if not 0.0 <= self.recall_rho <= 1.0:
            raise InvalidKnobsError(f"recall_rho must lie in [0, 1], got {self.recall_rho}")
        if self.jitter_s < 0 or not math.isfinite(self.jitter_s):
            raise InvalidKnobsError(f"jitter_s must be >= 0, got {self.jitter_s}")
        if not 0.0 <= self.latent_positive_rate <= 1.0:
            raise InvalidKnobsError(
                f"latent_positive_rate must lie in [0, 1], got {self.latent_positive_rate}"
            )


@dataclass(frozen=True, slots=True)
class ScriptedEvent:
    interval: TimeInterval
    label: str


@dataclass(frozen=True, slots=True)
class Scenario:
    """A replayable synthetic benchmark instance.

    Every ground truth must be a scripted event, which also catches a
    scenario file loaded over the annotations of another run.
    """

    seed: int
    knobs: ScenarioKnobs
    dataset: Dataset
    event_script: tuple[tuple[str, tuple[ScriptedEvent, ...]], ...]
    candidates: tuple[CandidateList, ...]
    latent_positives: tuple[tuple[str, tuple[TimeInterval, ...]], ...]

    def __post_init__(self):
        script = self.script_by_video()
        for query in self.dataset.iter_queries():
            gt = query.ground_truth
            if gt is None:
                continue
            events = script.get(query.video_id, ())
            if not any(e.interval == gt for e in events):
                raise SchemaViolation(
                    "event_script",
                    f"ground truth of query '{query.query_id}' missing from script "
                    "(are the scenario and annotations files from one run?)",
                )

    def script_by_video(self) -> dict[str, tuple[ScriptedEvent, ...]]:
        return dict(self.event_script)

    def candidates_by_query(self) -> dict[str, CandidateList]:
        return {clist.query_id: clist for clist in self.candidates}

    def ground_truth_by_query(self) -> dict[str, TimeInterval]:
        return {
            q.query_id: q.ground_truth
            for q in self.dataset.iter_queries()
            if q.ground_truth is not None
        }

    def latent_positives_by_query(self) -> dict[str, tuple[TimeInterval, ...]]:
        return dict(self.latent_positives)

    def target_label_by_query(self) -> dict[str, str]:
        """Label of the scripted event each query's ground truth matches."""
        script = self.script_by_video()
        labels = {}
        for query in self.dataset.iter_queries():
            gt = query.ground_truth
            if gt is None:
                continue
            for event in script[query.video_id]:
                if event.interval == gt:
                    labels[query.query_id] = event.label
                    break
        return labels


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
    are jittered copies of other events, constrained to IoU < 0.5 against
    the ground truth.
    """
    rng = random.Random(seed)
    videos = []
    script: list[tuple[str, tuple[ScriptedEvent, ...]]] = []
    all_lists: list[CandidateList] = []
    latent: list[tuple[str, tuple[TimeInterval, ...]]] = []
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
        video_latents: dict[str, tuple[TimeInterval, ...]] = {}
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
                    video_latents[query_id] = (events[twin_idx].interval,)

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
                distractor = _shifted(other, rng.uniform(-max_shift, max_shift))
                if temporal_iou(distractor, gt) >= 0.5:
                    distractor = other
                segments.append(distractor)

            noise = min(1.0, knobs.jitter_s)
            candidates = tuple(
                CandidateSegment(
                    interval=iv,
                    score=temporal_iou(iv, gt) + noise * rng.random(),
                    rank=position + 1,
                )
                for position, iv in enumerate(segments)
            )
            all_lists.append(
                validate_candidate_list(CandidateList(video_id, query_id, candidates))
            )

        relabeled = tuple(
            ScriptedEvent(event.interval, labels[j]) for j, event in enumerate(events)
        )
        script.append((video_id, relabeled))
        latent.extend(sorted(video_latents.items()))
        videos.append(VideoRecord(video_id, duration, tuple(queries)))

    return Scenario(
        seed=seed,
        knobs=knobs,
        dataset=Dataset(track=track, videos=tuple(videos)),
        event_script=tuple(script),
        candidates=tuple(all_lists),
        latent_positives=tuple(latent),
    )


class ScriptedStubBackend(Backend):
    """Answers narration requests from the event script and selection
    requests by matching the query's target event label against the
    candidate memories. Never touches pixel data."""

    backend_id = "stub"

    def __init__(self, scenario: Scenario):
        super().__init__()
        self._script = scenario.script_by_video()

    def _narrate(self, request: BackendRequest) -> BackendResponse:
        overlapping = [
            event.label
            for event in self._script.get(request.video_id, ())
            if event.interval.overlaps(request.clip)
        ]
        text = "events: " + ("; ".join(overlapping) if overlapping else "none")
        return BackendResponse(text=text, backend_id=self.backend_id)

    @staticmethod
    def _split_prompt(prompt: str) -> tuple[str, list[str]]:
        query_text_line = None
        sections: list[list[str]] = []
        for line in prompt.splitlines():
            if line.startswith(QUERY_LINE_PREFIX):
                query_text_line = line[len(QUERY_LINE_PREFIX):]
                continue
            heading = _CANDIDATE_HEADING_RE.match(line)
            if heading is not None:
                sections.append([])
            elif sections:
                sections[-1].append(line)
        if query_text_line is None:
            raise SchemaViolation("prompt", "selection prompt lacks a query line")
        return query_text_line, ["\n".join(s) for s in sections]

    def _select(self, prompt: str) -> BackendResponse:
        query_line, sections = self._split_prompt(prompt)
        label_match = _EVENT_IN_QUERY.search(query_line)
        if label_match is None:
            return BackendResponse(
                text="cannot tell which event is requested", backend_id=self.backend_id
            )
        pattern = re.compile(rf"\b{re.escape(label_match.group(1))}\b")
        for index, section in enumerate(sections, start=1):
            if pattern.search(section):
                return BackendResponse(text=str(index), backend_id=self.backend_id)
        return BackendResponse(
            text="none of the candidates match the query events",
            backend_id=self.backend_id,
        )


class _GroundTruthSelector(ScriptedStubBackend):
    """Shared machinery for selectors that consult the ground truth. They
    score the scenario's candidate lists, which a stage loads from the
    same lists it builds its selection prompts from."""

    def __init__(self, scenario: Scenario):
        super().__init__(scenario)
        self._gt = scenario.ground_truth_by_query()
        self._lists = scenario.candidates_by_query()

    def _query_id(self, prompt: str) -> str:
        query_line, _ = self._split_prompt(prompt)
        tag = _QUERY_TAG.search(query_line)
        if tag is None or tag.group(1) not in self._gt:
            raise SchemaViolation("prompt", "query id tag missing from selection prompt")
        return tag.group(1)

    def _ious(self, query_id: str) -> list[float]:
        gt = self._gt[query_id]
        return [
            temporal_iou(c.interval, gt)
            for c in self._lists[query_id].candidates
        ]


class OracleSelectorBackend(_GroundTruthSelector):
    """Selects the candidate with the highest IoU against ground truth
    (ties go to the lowest index)."""

    backend_id = "oracle"

    def _select(self, prompt: str) -> BackendResponse:
        ious = self._ious(self._query_id(prompt))
        best = max(range(len(ious)), key=lambda i: (ious[i], -i))
        return BackendResponse(text=str(best + 1), backend_id=self.backend_id)


class WorstSelectorBackend(_GroundTruthSelector):
    """Adversarial selector: always picks the lowest-IoU candidate."""

    backend_id = "adversarial"

    def _select(self, prompt: str) -> BackendResponse:
        ious = self._ious(self._query_id(prompt))
        worst = min(range(len(ious)), key=lambda i: (ious[i], i))
        return BackendResponse(text=str(worst + 1), backend_id=self.backend_id)


def stub_backend(scenario: Scenario) -> ScriptedStubBackend:
    return ScriptedStubBackend(scenario)


def oracle_selector(scenario: Scenario) -> OracleSelectorBackend:
    return OracleSelectorBackend(scenario)


def worst_selector(scenario: Scenario) -> WorstSelectorBackend:
    return WorstSelectorBackend(scenario)


def write_scenario(scenario: Scenario, path: str | Path) -> None:
    """The knobs, event script and latent positives; ``simulate`` writes
    the dataset and candidates to their own files."""
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
                for video_id, events in scenario.event_script
            },
            "latent_positives": {
                query_id: [[iv.start_s, iv.end_s] for iv in intervals]
                for query_id, intervals in scenario.latent_positives
            },
        },
        path,
    )


def load_scenario(
    path: str | Path, dataset: Dataset, candidates: Sequence[CandidateList]
) -> Scenario:
    """The scenario of ``path`` over the dataset and candidate lists the
    calling stage loaded from the annotations and candidates files."""
    payload = read_json_file(path)
    try:
        if payload.get("version") != SCENARIO_VERSION:
            raise SchemaViolation(
                "version",
                f"expected {SCENARIO_VERSION!r}, got {payload.get('version')!r}; "
                "re-run simulate",
            )
        knobs = ScenarioKnobs(**payload["knobs"])
        track = Track(payload["track"])
        script = tuple(
            (
                video_id,
                tuple(
                    ScriptedEvent(TimeInterval(e["start_s"], e["end_s"]), e["label"])
                    for e in events
                ),
            )
            for video_id, events in sorted(payload["event_script"].items())
        )
        latent = tuple(
            (query_id, tuple(TimeInterval(a, b) for a, b in pairs))
            for query_id, pairs in sorted(payload["latent_positives"].items())
        )
        seed = int(payload["seed"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation("scenario", f"malformed scenario file: {exc}") from exc
    if track is not dataset.track:
        raise SchemaViolation(
            "track", f"scenario is {track.value}, annotations are {dataset.track.value}"
        )
    return Scenario(
        seed=seed,
        knobs=knobs,
        dataset=dataset,
        event_script=script,
        candidates=tuple(candidates),
        latent_positives=latent,
    )


def latent_inclusive_ground_truth(
    scenario: Scenario,
) -> dict[str, tuple[TimeInterval, ...]]:
    """Annotated ground truth plus tracked latent positives per query,
    for reporting metric-visible vs latent-inclusive recall."""
    latents = scenario.latent_positives_by_query()
    result = {}
    for query_id, gt in scenario.ground_truth_by_query().items():
        result[query_id] = (gt,) + latents.get(query_id, ())
    return result


def recall_with_targets(
    predictions: Mapping[str, Sequence[TimeInterval]],
    targets: Mapping[str, Sequence[TimeInterval]],
    k: int,
    threshold: float,
) -> float:
    """Recall@k where a query hits if any of its target intervals is
    matched; used for latent-inclusive scoring."""
    hits = 0
    for query_id, intervals in targets.items():
        ranked = predictions.get(query_id, ())[:k]
        if any(
            temporal_iou(p, target) >= threshold for p in ranked for target in intervals
        ):
            hits += 1
    return 100.0 * hits / len(targets)
