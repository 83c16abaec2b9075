"""Command-line pipeline: one subcommand per stage of ``STAGES``.

Every stage reads and writes files under a shared output directory, so
each stage can be re-run idempotently. The two stages that call the
backend, narrate and rerank, are resumable: each reply is cached under
the cache directory as it arrives, so a re-run after an interruption asks
only for what is missing. Configuration precedence is command-line flag,
then config file, then built-in default.
"""

from __future__ import annotations

import argparse
import collections
import functools
import gc
import hashlib
import json
import logging
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

from . import clips, ingest, metrics, narration, sequencing, synth
from .core import CandidateKey, CandidateList, check_ranges, setting
from .rerank import RerankOutcome, SelectionCache, promote, read_abstentions, rerank_many
from .errors import (
    BackendError,
    ConfigError,
    MemoryMismatch,
    MemrerankError,
    MissingGroundTruth,
    MissingInputError,
    ValidationError,
)

logger = logging.getLogger("memrerank")

SCENARIO_FILE = "scenario.json"
ANNOTATIONS_FILE = "annotations.json"
CANDIDATES_FILE = "candidates.json"
MANIFESTS_FILE = "manifests.jsonl"
MEMORIES_FILE = "memories.jsonl"
RERANKED_FILE = "reranked_candidates.json"
RERANK_LOG_FILE = "rerank_log.jsonl"
PREDICTIONS_RERANK_FILE = "predictions_rerank.json"
OPTIMIZER_REPORT_FILE = "optimizer_report.json"
PREDICTIONS_FINAL_FILE = "predictions_final.json"
METRICS_BEFORE_FILE = "metrics_before.json"
METRICS_AFTER_FILE = "metrics_after.json"
METRICS_COMPARE_FILE = "metrics_compare.json"
REPORT_FILE = "report.txt"
CACHE_FILE = "narrations.jsonl"
SELECTIONS_FILE = "selections.jsonl"
NARRATE_STATS_FILE = "narrate_stats.json"

EXIT_CODES = {
    ConfigError: 2,
    MissingInputError: 3,
    ValidationError: 4,
    BackendError: 5,
}

DEFAULT_OUTPUT_DIR = "memrerank_out"
# The path settings whose default lies under the output directory.
_UNDER_OUTPUT_DIR = {
    "cache_dir": "cache",
    "annotations": ANNOTATIONS_FILE,
    "candidates": CANDIDATES_FILE,
    "scenario": SCENARIO_FILE,
}
# The settings nested under "paths" in a config file.
_PATH_KEYS = {*_UNDER_OUTPUT_DIR, "frames_root", "output_dir"}


# What a flag or config value must be, per RunConfig field type.
_EXPECTED = {
    "float": "a finite number",
    "int": "an integer",
    "bool": "true or false",
    "str": "a string",
    "Path": "a non-empty path string",
}


def _convert(f, value):
    """The value of RunConfig field ``f`` as its type, and one of its choices if
    it declares some; a value of another type is rejected, never coerced."""
    kind, choices = f.type.removesuffix(" | None"), f.metadata["choices"]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # A NaN, an infinity or an integer past the float range is not finite.
    if kind == "float" and number and abs(value) <= sys.float_info.max:
        return float(value)
    if kind == "int" and number and isinstance(value, int):
        return value
    if kind == "bool" and isinstance(value, bool):
        return value
    if kind == "str" and isinstance(value, str) and (not choices or value in choices):
        return value
    if kind == "Path" and isinstance(value, str) and value:
        return Path(value).resolve()
    expected = f"one of {', '.join(choices)}" if choices else _EXPECTED[kind]
    shown = json.dumps(value)  # a long one shortened as reprlib shortens an integer
    shown = shown if len(shown) <= 40 else f"{shown[:18]}...{shown[-19:]}"
    raise ConfigError(f"setting {f.name}={shown} must be {expected}")


def _configured(settings: type, args: argparse.Namespace, file_cfg: dict):
    """The dataclass ``settings`` from each field's flag in ``args``, else its key
    in ``file_cfg``, else its default; a value it refuses is a ``ConfigError``."""
    values = {}
    for f in fields(settings):
        value = getattr(args, f.name, None)
        if value is None:
            value = file_cfg.get(f.name)
        if value is not None:
            values[f.name] = _convert(f, value)
    try:
        return settings(**values)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class RunConfig:
    """Resolved settings for one invocation.

    Each field declares one setting once, in ``--help``'s order: its name
    is its config-file key (the ``_PATH_KEYS`` nest under ``"paths"``) and
    its flag's dest, ``core.setting`` puts the flag, its help, any choices
    and any range in its metadata, its type says what a value must be
    (``_EXPECTED``), and its default applies when neither flag nor file
    sets it. The output directory defaults to ``DEFAULT_OUTPUT_DIR`` and
    the paths without a default to their ``_UNDER_OUTPUT_DIR`` entry under it.
    """

    output_dir: Path = setting("--out", "output directory")
    annotations: Path = setting("--annotations", "annotations file")
    candidates: Path = setting("--candidates", "base candidates file")
    scenario: Path = setting("--scenario", "scenario file (stub/oracle backends)")
    frames_root: Path | None = setting("--frames-root", "frame image root")
    cache_dir: Path = setting("--cache-dir", "narration and selection cache directory")
    backend: str = setting("--backend", "backend mode", "stub", ("stub", "oracle", "remote"))
    clip_len_s: float = setting("--clip-len", "clip length, s", clips.DEFAULT_CLIP_LEN_S)
    fps: float = setting("--fps", "frame sampling rate", clips.DEFAULT_FPS)
    top_k: int = setting(
        "--top-k", "candidates kept per query", ingest.DEFAULT_TOP_K, range=(1, None)
    )
    lambda_penalty: float = setting(
        "--lambda", "start-penalty weight", sequencing.DEFAULT_LAMBDA_PENALTY, range=(0, None)
    )
    rank_source: str = setting(
        "--rank-source", "candidate ranks consumed by the optimizer", "post_rerank",
        ("pre_rerank", "post_rerank"),
    )
    rerank_limit: int | None = setting(
        "--limit", "plan and rerank the first N queries only", range=(0, None)
    )
    c_max: int = setting(
        "--c-max", "max in-flight requests", narration.DEFAULT_C_MAX,
        range=(1, narration.MAX_C_MAX),
    )
    seed: int = setting("--seed", "seed for scenario generation", 0)
    narration_prompt: Path | None = setting("--prompt-file", "narration prompt template file")
    frame_extract_cmd: str | None = setting(
        "--extract-cmd", "command template for missing frames ({video} {t} {out})"
    )
    include_scores: bool = setting(
        "--include-scores", "show model scores in the selection prompt", False
    )

    def __post_init__(self):
        self.output_dir = self.output_dir or Path(DEFAULT_OUTPUT_DIR).resolve()
        for name, relative in _UNDER_OUTPUT_DIR.items():
            setattr(self, name, getattr(self, name) or self.output_dir / relative)
        check_ranges(self)
        clips.check_sampling(self.fps, self.clip_len_s)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        file_cfg = {}
        if getattr(args, "config", None):
            config_path = Path(args.config)
            if not config_path.is_file():
                raise ConfigError(f"config file not found or not a file: {config_path}")
            try:
                file_cfg = json.loads(config_path.read_text(encoding="utf-8"))
            except ValueError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
            if not isinstance(file_cfg, dict):
                raise ConfigError("config file must hold a JSON object")
            top_level = ({f.name for f in fields(cls)} - _PATH_KEYS) | {"paths"}
            if unknown := set(file_cfg) - top_level:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            paths = file_cfg.pop("paths", None)  # null, like absent, sets none
            if paths is not None and (not isinstance(paths, dict) or set(paths) - _PATH_KEYS):
                raise ConfigError(
                    f"config 'paths' must be an object with keys from {sorted(_PATH_KEYS)}"
                )
            file_cfg.update(paths or {})

        cfg = _configured(cls, args, file_cfg)
        _prompt_template(cfg.narration_prompt)  # read again by narrate
        if cfg.frame_extract_cmd is not None:  # filled in again per missing frame
            narration.extraction_args(cfg.frame_extract_cmd, "v000", "0.000", "frame.jpg")
        return cfg

    def _path(self, name: str) -> Path:
        """Where stage file ``name`` lives: the path setting that defaults to
        it, if any, else ``name`` under the cache directory for the cache
        files and under the output directory for the rest."""
        setting = next((s for s, file in _UNDER_OUTPUT_DIR.items() if file == name), None)
        if setting:
            return getattr(self, setting)
        cached = name in (CACHE_FILE, SELECTIONS_FILE, NARRATE_STATS_FILE)
        return (self.cache_dir if cached else self.output_dir) / name

    def input(self, name: str) -> Path:
        """The path of stage file ``name``, which must exist."""
        path = self._path(name)
        if not path.exists():
            producer = next(stage.name for stage in STAGES if name in stage.writes)
            raise MissingInputError(producer, path)
        return path

    def output(self, name: str) -> Path:
        """The path stage file ``name`` is written to, its directory made."""
        path = self._path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path


def _add_setting_flags(parser: argparse.ArgumentParser, settings: type) -> None:
    """One flag per field of the dataclass ``settings``, the field its dest."""
    for f in fields(settings):
        kind = f.type.removesuffix(" | None")
        if kind == "bool":
            kwargs = {"action": "store_const", "const": True}
        else:  # argparse converts the numbers; the dataclass's checks refuse the rest
            type_ = {"float": float, "int": int}.get(kind)
            kwargs = {"type": type_, "choices": f.metadata["choices"] or None}
        parser.add_argument(f.metadata["flag"], dest=f.name, help=f.metadata["help"], **kwargs)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    _add_setting_flags(parser, RunConfig)


def _load_inputs(cfg: RunConfig) -> tuple[ingest.Dataset, list[CandidateList]]:
    """The annotations and the top-k candidate lists, in dataset order."""
    annotations, candidates = cfg.input(ANNOTATIONS_FILE), cfg.input(CANDIDATES_FILE)
    dataset = ingest.load_annotations(annotations)
    lists = ingest.load_candidates(candidates, top_k=cfg.top_k, dataset=dataset)
    position = {query.query_id: i for i, query in enumerate(dataset.iter_queries())}
    return dataset, sorted(lists, key=lambda clist: position[clist.query_id])


def _build_backend(cfg: RunConfig) -> narration.Backend:
    """The configured backend. The scripted ones narrate from the event
    script, which they load (with the annotations it is checked against)
    at their first narration request."""
    if cfg.backend == "remote":
        from .remote import FrameProvider, RemoteBackend

        provider = cfg.frames_root and FrameProvider(cfg.frames_root, cfg.frame_extract_cmd)
        return RemoteBackend.from_env(frame_provider=provider)

    def load_script() -> synth.EventScript:
        annotations = ingest.load_annotations(cfg.input(ANNOTATIONS_FILE))
        return synth.load_scenario(cfg.input(SCENARIO_FILE), annotations)

    if cfg.backend == "oracle":
        return synth.OracleSelectorBackend(load_script)
    return synth.stub_backend(load_script)


def _prompt_template(path: Path | None) -> str:
    """The stripped narration prompt of ``path``, the default one if it is None."""
    if path is None:
        return narration.DEFAULT_PROMPT
    setting = f"setting narration_prompt={json.dumps(str(path))}"
    try:
        prompt = path.read_text(encoding="utf-8").strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{setting} must be a readable UTF-8 file: {exc}") from exc
    if not prompt:
        raise ConfigError(f"{setting} must not be blank")
    return prompt


def _add_simulate_flags(parser: argparse.ArgumentParser) -> None:
    _add_setting_flags(parser, synth.ScenarioKnobs)
    tracks = [track.value for track in ingest.Track]
    parser.add_argument("--track", choices=tracks, default=ingest.Track.GOALSTEP.value)
    _add_common_flags(parser)


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    knobs = args.knobs  # built, with every other setting, before any file is deleted
    scenario = synth.generate_scenario(knobs, cfg.seed, track=ingest.Track(args.track))
    synth.write_scenario(scenario, cfg.output(SCENARIO_FILE))
    ingest.write_annotations(scenario.dataset, cfg.output(ANNOTATIONS_FILE))
    ingest.write_candidates(scenario.candidates, cfg.output(CANDIDATES_FILE))
    logger.info(
        "simulated %d videos / %d queries (seed %d) into %s",
        knobs.num_videos,
        knobs.num_videos * knobs.queries_per_video,
        cfg.seed,
        cfg.output_dir,
    )
    return 0


def cmd_plan(cfg: RunConfig, args: argparse.Namespace) -> int:
    _, lists = _load_inputs(cfg)
    plans = [  # of the lists rerank sends: the first ``rerank_limit``
        clips.plan_candidate(
            CandidateKey(clist.video_id, clist.query_id, rank),
            candidate.interval,
            cfg.clip_len_s,
            cfg.fps,
        )
        for clist in lists[: cfg.rerank_limit]
        for rank, candidate in enumerate(clist.candidates, start=1)
    ]
    count = clips.write_frame_manifests(plans, cfg.output(MANIFESTS_FILE))
    logger.info("planned %d clips over %d candidates", count, len(plans))
    return 0


def cmd_narrate(cfg: RunConfig, args: argparse.Namespace) -> int:
    plans = clips.read_frame_manifests(cfg.input(MANIFESTS_FILE))
    backend = _build_backend(cfg)
    if cfg.backend != "remote":  # a scripted narration reads the scenario's event script
        digest = hashlib.sha256(cfg.input(SCENARIO_FILE).read_bytes()).hexdigest()[:12]
        backend.backend_id = f"{backend.backend_id}-{digest}"
    with narration.NarrationCache(cfg.output(CACHE_FILE)) as cache:
        engine = narration.NarrationEngine(
            backend, cache, prompt=_prompt_template(cfg.narration_prompt), c_max=cfg.c_max
        )
        try:
            memories = engine.narrate_plans(plans)
        finally:  # the stats of this run, failed or not
            stats = engine.stats()
            ingest.write_report_file(stats, cfg.output(NARRATE_STATS_FILE))
    narration.write_memories(memories, cfg.output(MEMORIES_FILE))
    logger.info(
        "narrated %d candidates (%d backend calls, %d cache hits)",
        len(memories),
        stats["backend_calls"],
        stats["cache_hits"],
    )
    return 0


def cmd_rerank(cfg: RunConfig, args: argparse.Namespace) -> int:
    dataset, lists = _load_inputs(cfg)
    memories_path = cfg.input(MEMORIES_FILE)
    memories = narration.read_memories(memories_path)
    memories_by_query: dict[str, list] = {}
    for memory in sorted(memories, key=lambda m: m.candidate_key.rank):
        memories_by_query.setdefault(memory.candidate_key.query_id, []).append(memory)
    query_of = {query.query_id: query for query in dataset.iter_queries()}
    jobs = [
        (query_of[clist.query_id], clist, memories_by_query.get(clist.query_id, []))
        for clist in lists
    ]
    backend, counts = _build_backend(cfg), collections.Counter()
    # The first ``rerank_limit`` jobs go to the backend; the rest keep their order.
    with SelectionCache(cfg.output(SELECTIONS_FILE)) as cache:
        try:
            reranked = rerank_many(
                jobs[: cfg.rerank_limit],
                backend,
                c_max=cfg.c_max,
                include_scores=cfg.include_scores,
                cache=cache,
                count=counts.update,
            )
        except MemoryMismatch as exc:
            raise MemoryMismatch(f"{memories_path} does not match the candidates: {exc}") from exc
        except MissingGroundTruth as exc:
            raise MissingGroundTruth(f"{cfg.input(ANNOTATIONS_FILE)}: {exc}") from exc
    outcomes = reranked + [RerankOutcome(clist) for clist in lists[len(reranked) :]]
    # The log holds every query in dataset order, one without candidates as skipped.
    records = {
        outcome.original.query_id: outcome.log_record("limit" if i >= len(reranked) else "")
        for i, outcome in enumerate(outcomes)
    }
    log_records = [
        records.get(query_id)
        or {"query_id": query_id, "skipped": True, "skip_reason": "no candidates"}
        for query_id in query_of
    ]
    promoted = [outcome.reranked for outcome in outcomes]
    ingest.write_candidates(promoted, cfg.output(RERANKED_FILE))
    predictions = {clist.query_id: clist.intervals() for clist in promoted}
    ingest.write_predictions(predictions, cfg.output(PREDICTIONS_RERANK_FILE))
    ingest.write_jsonl(log_records, cfg.output(RERANK_LOG_FILE))
    logger.info(
        "reranked %d queries (%d skipped; %d cached, %d backend calls) with backend '%s'",
        len(reranked),
        len(log_records) - len(reranked),
        counts["cache_hits"],
        backend.select_calls,
        backend.backend_id,
    )
    return 0


def cmd_optimize(cfg: RunConfig, args: argparse.Namespace) -> int:
    annotations = cfg.input(ANNOTATIONS_FILE)
    dataset = ingest.load_annotations(annotations)
    if dataset.track is not ingest.Track.GOALSTEP:
        raise ConfigError(
            f"{annotations} holds an unordered ({dataset.track.value}) dataset; sequence "
            "optimization needs an ordered (goalstep) one, so evaluate the rerank predictions"
        )
    # A reranked file's order is its ranking; base candidates rank by score.
    post_rerank = cfg.rank_source == "post_rerank"
    source = cfg.input(RERANKED_FILE if post_rerank else CANDIDATES_FILE)
    lists = ingest.load_candidates(
        source, top_k=cfg.top_k, dataset=dataset, canonical=not post_rerank
    )
    # A query whose selection abstained keeps its reranked list and leaves
    # its video's chain, so its pick does not pull its neighbours' picks.
    abstained = read_abstentions(cfg.input(RERANK_LOG_FILE)) if post_rerank else set()
    left_out = sequencing.build_tasks(dataset, [c for c in lists if c.query_id in abstained])
    tasks = sequencing.build_tasks(dataset, [c for c in lists if c.query_id not in abstained])
    entries = []
    predictions = {clist.query_id: clist.intervals() for task in left_out for clist in task}
    for task in tasks:
        choices = sequencing.optimize_sequence(task, cfg.lambda_penalty)
        if sequencing.selection_cost(task, choices, cfg.lambda_penalty) > sys.float_info.max:
            raise ConfigError(
                f"setting lambda_penalty={cfg.lambda_penalty!r} overflows the total cost "
                f"of video '{task[0].video_id}'"
            )
        entries.append((task, choices))
        for clist, choice in zip(task, choices):
            predictions[clist.query_id] = promote(clist, choice + 1).intervals()
    report = cfg.output(OPTIMIZER_REPORT_FILE)
    sequencing.write_optimizer_report(entries, cfg.lambda_penalty, cfg.rank_source, report, left_out)
    ingest.write_predictions(predictions, cfg.output(PREDICTIONS_FINAL_FILE))
    logger.info(
        "optimized %d videos (%d queries, %d abstained and left out) with lambda=%g, ranks from %s",
        len(tasks),
        len(predictions),
        sum(map(len, left_out)),
        cfg.lambda_penalty,
        cfg.rank_source,
    )
    return 0


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    dataset, lists = _load_inputs(cfg)
    before_predictions = {clist.query_id: clist.intervals() for clist in lists}
    final = cfg._path(PREDICTIONS_FINAL_FILE).exists()
    after_path = cfg.input(PREDICTIONS_FINAL_FILE if final else PREDICTIONS_RERANK_FILE)
    after_predictions = ingest.load_predictions(after_path, dataset)
    try:
        before = metrics.evaluate_run(before_predictions, dataset, "base candidates")
        after = metrics.evaluate_run(after_predictions, dataset, after_path.name)
    except MissingGroundTruth as exc:
        raise MissingGroundTruth(f"{cfg.input(ANNOTATIONS_FILE)}: {exc}") from exc
    metrics.write_metrics_report(before, cfg.output(METRICS_BEFORE_FILE))
    metrics.write_metrics_report(after, cfg.output(METRICS_AFTER_FILE))
    metrics.write_comparison(before, after, cfg.output(METRICS_COMPARE_FILE))
    logger.info(
        "evaluated %d queries: mean R@1 %.2f -> %.2f (after: %s)",
        before.num_queries,
        before.mean_r1,
        after.mean_r1,
        after_path.name,
    )
    return 0


def cmd_report(cfg: RunConfig, args: argparse.Namespace) -> int:
    before, after = metrics.read_comparison(cfg.input(METRICS_COMPARE_FILE))
    table = metrics.format_comparison_table([("base", before), ("reranked", after)])
    print(table)
    with ingest.atomic_writer(cfg.output(REPORT_FILE)) as handle:
        handle.write(table + "\n")
    return 0


class Stage(NamedTuple):
    """One pipeline stage: its subcommand, the stage files it reads and
    writes (the caches aside), and what adds its flags."""

    name: str
    command: Callable[[RunConfig, argparse.Namespace], int]
    help: str
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    add_flags: Callable[[argparse.ArgumentParser], None] = _add_common_flags


# The pipeline in run order: a stage that misses an input file names the
# stage here that writes it. ``narrate`` parses the scenario and
# annotations only when a scripted backend narrates a cache miss (it hashes
# the scenario's bytes on every run), ``optimize`` reads the reranked
# candidates and the rerank log only under ``--rank-source post_rerank``
# and the base candidates only under ``pre_rerank``, and ``eval`` the
# final predictions when they exist and the rerank predictions otherwise.
STAGES = (
    Stage("simulate", cmd_simulate, "generate a synthetic scenario",
          reads=(), writes=(SCENARIO_FILE, ANNOTATIONS_FILE, CANDIDATES_FILE),
          add_flags=_add_simulate_flags),
    Stage("plan", cmd_plan, "write each candidate's span and sampling to a manifest",
          reads=(ANNOTATIONS_FILE, CANDIDATES_FILE), writes=(MANIFESTS_FILE,)),
    Stage("narrate", cmd_narrate, "narrate clips into episodic memories",
          reads=(MANIFESTS_FILE, SCENARIO_FILE, ANNOTATIONS_FILE),
          writes=(MEMORIES_FILE,)),
    Stage("rerank", cmd_rerank, "promote the backend's pick per query",
          reads=(ANNOTATIONS_FILE, CANDIDATES_FILE, MEMORIES_FILE),
          writes=(RERANKED_FILE, RERANK_LOG_FILE, PREDICTIONS_RERANK_FILE)),
    Stage("optimize", cmd_optimize, "enforce the sequential start-time prior",
          reads=(ANNOTATIONS_FILE, RERANKED_FILE, RERANK_LOG_FILE, CANDIDATES_FILE),
          writes=(OPTIMIZER_REPORT_FILE, PREDICTIONS_FINAL_FILE)),
    Stage("eval", cmd_eval, "compute recall metrics before/after",
          reads=(ANNOTATIONS_FILE, CANDIDATES_FILE, PREDICTIONS_FINAL_FILE,
                 PREDICTIONS_RERANK_FILE),
          writes=(METRICS_BEFORE_FILE, METRICS_AFTER_FILE, METRICS_COMPARE_FILE)),
    Stage("report", cmd_report, "print the before/after metrics table",
          reads=(METRICS_COMPARE_FILE,), writes=(REPORT_FILE,)),
)


def _drop_stale(cfg: RunConfig, command: str) -> None:
    """Delete the files stage ``command`` writes, so that it leaves none of
    them if it fails, and those of every stage that reads one of them,
    directly or through another such stage: they were derived from the
    files it is about to replace."""
    replaced: set[str] = set()
    for stage in STAGES:
        if stage.name == command or replaced.intersection(stage.reads):
            replaced.update(stage.writes)
            for name in stage.writes:
                cfg._path(name).unlink(missing_ok=True)


def build_parser() -> argparse.ArgumentParser:
    """The parser of the ``STAGES`` subcommands. It is built once per value
    of ``STAGES`` and shared by every caller, which may parse with it but
    not change it."""
    return _parser(STAGES)


@functools.cache
def _parser(stages: tuple[Stage, ...]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memrerank",
        description=(
            "Rerank temporal localization candidates through per-candidate "
            "narration memories, enforce a sequential start-time prior, and "
            "score recall@k at IoU thresholds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in stages:
        p = sub.add_parser(stage.name, help=stage.help)
        stage.add_flags(p)
        p.set_defaults(func=stage.command)
    return parser


def main(argv=None) -> int:
    """Run one stage with the cyclic collector paused: a stage leaves no
    garbage in reference cycles (its argument parser, which holds some, is
    built once per process), so collecting would only cost time. The
    collector's state is restored on every way out."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        logging.basicConfig(
            level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
        )
        args = build_parser().parse_args(argv)
        cfg = RunConfig.from_args(args)
        args.knobs = _configured(synth.ScenarioKnobs, args, {})  # simulate's; flags only
        _drop_stale(cfg, args.command)
        return args.func(cfg, args)
    except MemrerankError as exc:
        logger.error("%s", exc)
        for cls, code in EXIT_CODES.items():
            if isinstance(exc, cls):
                return code
        return 1
    except OSError as exc:
        logger.error("i/o failure: %s", exc)
        return 6
    finally:
        if collecting:
            gc.enable()
