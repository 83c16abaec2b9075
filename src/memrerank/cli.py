"""Command-line pipeline: simulate, plan, narrate, rerank, optimize, eval,
report.

Every stage reads and writes files under a shared output directory, so
the expensive narration stage is resumable and each stage can be re-run
idempotently. Configuration precedence is command-line flag, then config
file, then built-in default.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import clips, ingest, metrics, narration, sequencing, synth
from .core import CandidateList
from .rerank import identity_outcome, log_record, rerank_many, write_rerank_log
from .errors import (
    BackendError,
    ConfigError,
    MemrerankError,
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
NARRATE_STATS_FILE = "narrate_stats.json"

EXIT_CODES = {
    ConfigError: 2,
    MissingInputError: 3,
    ValidationError: 4,
    BackendError: 5,
}

_CONFIG_KEYS = {
    "paths",
    "clip_len_s",
    "fps",
    "top_k",
    "backend",
    "c_max",
    "lambda_penalty",
    "rank_source",
    "rerank_limit",
    "seed",
    "narration_prompt",
    "frame_extract_cmd",
    "include_scores",
}
_PATH_KEYS = {
    "annotations",
    "candidates",
    "scenario",
    "frames_root",
    "cache_dir",
    "output_dir",
}


@dataclass
class RunConfig:
    """Resolved paths and pipeline constants for one invocation."""

    output_dir: Path
    cache_dir: Path
    annotations: Path
    candidates: Path
    scenario: Path
    frames_root: Path | None
    clip_len_s: float = 20.0
    fps: float = 1.0
    top_k: int = 5
    backend: str = "stub"
    c_max: int = 4
    lambda_penalty: float = 1.0
    rank_source: str = "post_rerank"
    rerank_limit: int | None = None
    seed: int = 0
    narration_prompt: Path | None = None
    frame_extract_cmd: str | None = None
    include_scores: bool = False

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        file_cfg = {}
        if getattr(args, "config", None):
            config_path = Path(args.config)
            if not config_path.exists():
                raise ConfigError(f"config file not found: {config_path}")
            try:
                file_cfg = json.loads(config_path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
            if not isinstance(file_cfg, dict):
                raise ConfigError("config file must hold a JSON object")
            unknown = set(file_cfg) - _CONFIG_KEYS
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            paths = file_cfg.get("paths", {})
            if not isinstance(paths, dict) or set(paths) - _PATH_KEYS:
                raise ConfigError(
                    f"config 'paths' must be an object with keys from {sorted(_PATH_KEYS)}"
                )

        def pick(name: str, default, from_paths: bool = False):
            flag = getattr(args, name, None)
            if flag is not None:
                return flag
            source = file_cfg.get("paths", {}) if from_paths else file_cfg
            value = source.get(name)
            return value if value is not None else default

        output_dir = Path(pick("output_dir", "memrerank_out", from_paths=True)).resolve()
        cache_dir = pick("cache_dir", None, from_paths=True)
        cache_dir = Path(cache_dir).resolve() if cache_dir else output_dir / "cache"

        def pick_path(name: str, default: Path) -> Path:
            value = pick(name, None, from_paths=True)
            return Path(value).resolve() if value else default

        frames_root = pick("frames_root", None, from_paths=True)
        prompt = pick("narration_prompt", None)
        limit = pick("rerank_limit", None)
        if limit is not None:
            limit = int(limit)
            if limit < 0:
                raise ConfigError(f"rerank_limit must be >= 0, got {limit}")
        cfg = cls(
            output_dir=output_dir,
            cache_dir=cache_dir,
            annotations=pick_path("annotations", output_dir / ANNOTATIONS_FILE),
            candidates=pick_path("candidates", output_dir / CANDIDATES_FILE),
            scenario=pick_path("scenario", output_dir / SCENARIO_FILE),
            frames_root=Path(frames_root).resolve() if frames_root else None,
            clip_len_s=float(pick("clip_len_s", 20.0)),
            fps=float(pick("fps", 1.0)),
            top_k=int(pick("top_k", 5)),
            backend=str(pick("backend", "stub")),
            c_max=int(pick("c_max", 4)),
            lambda_penalty=float(pick("lambda_penalty", 1.0)),
            rank_source=str(pick("rank_source", "post_rerank")),
            rerank_limit=limit,
            seed=int(pick("seed", 0)),
            narration_prompt=Path(prompt).resolve() if prompt else None,
            frame_extract_cmd=pick("frame_extract_cmd", None),
            include_scores=bool(pick("include_scores", False)),
        )
        if cfg.backend not in ("stub", "oracle", "remote"):
            raise ConfigError(f"unknown backend mode '{cfg.backend}'")
        if cfg.rank_source not in ("pre_rerank", "post_rerank"):
            raise ConfigError(f"unknown rank source '{cfg.rank_source}'")
        if cfg.clip_len_s <= 0 or cfg.fps <= 0 or cfg.top_k < 1 or cfg.c_max < 1:
            raise ConfigError("clip_len_s, fps, top_k, and c_max must be positive")
        if cfg.lambda_penalty < 0:
            raise ConfigError("lambda_penalty must be >= 0")
        if math.ceil(cfg.clip_len_s * cfg.fps) > narration.MAX_IMAGES_PER_REQUEST:
            raise ConfigError(
                f"clip_len_s * fps must be <= {narration.MAX_IMAGES_PER_REQUEST} "
                "frames per clip, the narration request cap"
            )
        return cfg

    def require(self, path: Path, stage: str, what: str) -> Path:
        if not path.exists():
            raise MissingInputError(stage, f"{what} not found at {path}")
        return path


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument("--annotations", help="annotations file")
    parser.add_argument("--candidates", help="base candidates file")
    parser.add_argument("--scenario", help="scenario file (stub/oracle backends)")
    parser.add_argument("--frames-root", dest="frames_root", help="frame image root")
    parser.add_argument("--cache-dir", dest="cache_dir", help="narration cache directory")
    parser.add_argument(
        "--backend", choices=["stub", "oracle", "remote"], help="backend mode"
    )
    parser.add_argument("--clip-len", dest="clip_len_s", type=float, help="clip length, s")
    parser.add_argument("--fps", type=float, help="frame sampling rate")
    parser.add_argument("--top-k", dest="top_k", type=int, help="candidates kept per query")
    parser.add_argument(
        "--lambda", dest="lambda_penalty", type=float, help="start-penalty weight"
    )
    parser.add_argument(
        "--rank-source",
        dest="rank_source",
        choices=["pre_rerank", "post_rerank"],
        help="candidate ranks consumed by the optimizer",
    )
    parser.add_argument(
        "--limit", dest="rerank_limit", type=int, help="max queries to rerank"
    )
    parser.add_argument("--c-max", dest="c_max", type=int, help="max in-flight requests")
    parser.add_argument("--seed", type=int, help="seed for scenario generation")
    parser.add_argument(
        "--prompt-file", dest="narration_prompt", help="narration prompt template file"
    )
    parser.add_argument(
        "--extract-cmd",
        dest="frame_extract_cmd",
        help="command template for missing frames ({video} {t} {out})",
    )
    parser.add_argument(
        "--include-scores",
        dest="include_scores",
        action="store_const",
        const=True,
        help="show model scores in the selection prompt",
    )


def _load_inputs(cfg: RunConfig) -> tuple[ingest.Dataset, list[CandidateList]]:
    """The annotations and the top-k candidate lists."""
    cfg.require(cfg.annotations, "simulate", "annotations file")
    cfg.require(cfg.candidates, "simulate", "candidates file")
    dataset = ingest.load_annotations(cfg.annotations)
    return dataset, ingest.load_candidates(cfg.candidates, top_k=cfg.top_k, dataset=dataset)


def _build_backend(cfg: RunConfig, inputs=None) -> narration.Backend:
    """The configured backend. The scripted ones load the scenario over
    ``inputs``, the stage's (dataset, candidate lists), which are loaded
    here when the stage has not loaded them itself."""
    if cfg.backend == "remote":
        from .remote import FrameProvider, RemoteBackend

        provider = None
        if cfg.frames_root is not None:
            provider = FrameProvider(cfg.frames_root, cfg.frame_extract_cmd)
        return RemoteBackend.from_env(frame_provider=provider)
    cfg.require(cfg.scenario, "simulate", "scenario file")
    dataset, lists = inputs if inputs is not None else _load_inputs(cfg)
    scenario = synth.load_scenario(cfg.scenario, dataset, lists)
    if cfg.backend == "oracle":
        return synth.oracle_selector(scenario)
    return synth.stub_backend(scenario)


def _prompt_template(cfg: RunConfig) -> narration.PromptTemplate:
    if cfg.narration_prompt is not None:
        return narration.PromptTemplate.from_file(cfg.narration_prompt)
    return narration.DEFAULT_PROMPT


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    knobs = synth.ScenarioKnobs(
        num_videos=args.videos,
        queries_per_video=args.queries_per_video,
        candidates_per_query=args.candidates_per_query,
        recall_rho=args.recall_rho,
        jitter_s=args.jitter,
        latent_positive_rate=args.latent_rate,
    )
    scenario = synth.generate_scenario(knobs, cfg.seed, track=ingest.Track(args.track))
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    synth.write_scenario(scenario, cfg.output_dir / SCENARIO_FILE)
    ingest.write_annotations(scenario.dataset, cfg.output_dir / ANNOTATIONS_FILE)
    ingest.write_candidates(scenario.candidates, cfg.output_dir / CANDIDATES_FILE)
    logger.info(
        "simulated %d videos / %d queries (seed %d) into %s",
        knobs.num_videos,
        knobs.num_videos * knobs.queries_per_video,
        cfg.seed,
        cfg.output_dir,
    )
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    cfg.require(cfg.candidates, "simulate", "candidates file")
    dataset = None
    if cfg.annotations.exists():
        dataset = ingest.load_annotations(cfg.annotations)
    lists = ingest.load_candidates(cfg.candidates, top_k=cfg.top_k, dataset=dataset)
    plans = [
        clips.plan_candidate(
            candidate,
            cfg.clip_len_s,
            cfg.fps,
            video_id=clist.video_id,
            query_id=clist.query_id,
        )
        for clist in lists
        for candidate in clist.candidates
    ]
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    count = clips.write_frame_manifests(plans, cfg.output_dir / MANIFESTS_FILE)
    logger.info("planned %d clips over %d candidates", count, len(plans))
    return 0


def cmd_narrate(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    manifest_path = cfg.require(cfg.output_dir / MANIFESTS_FILE, "plan", "frame manifests")
    plans = clips.read_frame_manifests(manifest_path)
    backend = _build_backend(cfg)
    cfg.cache_dir.mkdir(parents=True, exist_ok=True)
    cache = narration.NarrationCache(cfg.cache_dir / CACHE_FILE)
    with narration.NarrationEngine(
        backend, cache, prompt=_prompt_template(cfg), c_max=cfg.c_max
    ) as engine:
        memories = engine.narrate_plans(plans)
        stats = engine.stats()
    narration.write_memories(memories, cfg.output_dir / MEMORIES_FILE)
    with ingest.atomic_writer(cfg.cache_dir / NARRATE_STATS_FILE) as handle:
        json.dump(stats, handle, sort_keys=True, indent=2)
        handle.write("\n")
    logger.info(
        "narrated %d candidates (%d backend calls, %d cache hits)",
        len(memories),
        stats["backend_calls"],
        stats["cache_hits"],
    )
    return 0


def cmd_rerank(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    dataset, lists = _load_inputs(cfg)
    memories_path = cfg.require(cfg.output_dir / MEMORIES_FILE, "narrate", "memories file")
    lists_by_query = {clist.query_id: clist for clist in lists}
    memories_by_query: dict[str, list] = {}
    for memory in narration.read_memories(memories_path):
        memories_by_query.setdefault(memory.candidate_key.query_id, []).append(memory)
    backend = _build_backend(cfg, (dataset, lists))

    eligible = []
    records_order = []
    for query in dataset.iter_queries():
        clist = lists_by_query.get(query.query_id)
        if clist is None:
            records_order.append((query.query_id, None))
            continue
        memories = sorted(
            memories_by_query.get(query.query_id, []),
            key=lambda m: m.candidate_key.rank,
        )
        records_order.append((query.query_id, (query, clist, memories)))
        eligible.append(query.query_id)

    limit = cfg.rerank_limit if cfg.rerank_limit is not None else len(eligible)
    to_rerank = set(eligible[:limit])
    jobs = [
        item for query_id, item in records_order if item and query_id in to_rerank
    ]
    outcomes = rerank_many(
        jobs, backend, c_max=cfg.c_max, include_scores=cfg.include_scores
    )
    outcome_by_query = {outcome.query_id: outcome for outcome in outcomes}

    log_records = []
    final_lists = []
    predictions = {}
    for query_id, item in records_order:
        if item is None:
            log_records.append(
                {"query_id": query_id, "skipped": True, "skip_reason": "no candidates"}
            )
            continue
        _, clist, _ = item
        if query_id in outcome_by_query:
            outcome = outcome_by_query[query_id]
            log_records.append(log_record(outcome))
        else:
            outcome = identity_outcome(query_id, clist)
            log_records.append(log_record(outcome, skipped=True, reason="limit"))
        final_lists.append(outcome.reranked)
        predictions[query_id] = outcome.reranked.intervals()

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    ingest.write_candidates(final_lists, cfg.output_dir / RERANKED_FILE)
    ingest.write_predictions(predictions, cfg.output_dir / PREDICTIONS_RERANK_FILE)
    write_rerank_log(log_records, cfg.output_dir / RERANK_LOG_FILE)
    reranked_count = sum(1 for r in log_records if not r.get("skipped"))
    logger.info(
        "reranked %d queries (%d skipped) with backend '%s'",
        reranked_count,
        len(log_records) - reranked_count,
        backend.backend_id,
    )
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    cfg.require(cfg.annotations, "simulate", "annotations file")
    dataset = ingest.load_annotations(cfg.annotations)
    if dataset.track is not ingest.Track.GOALSTEP:
        raise ConfigError(
            "sequence optimization needs an ordered (goalstep) dataset; "
            "evaluate the rerank predictions directly for unordered tracks"
        )
    if cfg.rank_source == "post_rerank":
        source = cfg.require(
            cfg.output_dir / RERANKED_FILE, "rerank", "reranked candidates file"
        )
        lists = ingest.load_candidates(
            source, top_k=cfg.top_k, dataset=dataset, canonical=False
        )
    else:
        source = cfg.require(cfg.candidates, "simulate", "candidates file")
        lists = ingest.load_candidates(source, top_k=cfg.top_k, dataset=dataset)
    opt_cfg = sequencing.OptimizerConfig(
        lambda_penalty=cfg.lambda_penalty,
        rank_source=sequencing.RankSource(cfg.rank_source),
    )
    tasks = sequencing.build_tasks(dataset, lists)
    entries = []
    predictions = {}
    for task in tasks:
        selection = sequencing.optimize_sequence(task, opt_cfg)
        entries.append((task, selection))
        for i, choice in enumerate(selection.choices):
            clist = task.lists[i]
            chosen = clist.candidates[choice]
            rest = [c.interval for j, c in enumerate(clist.candidates) if j != choice]
            predictions[task.queries[i].query_id] = (chosen.interval, *rest)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    sequencing.write_optimizer_report(
        entries, opt_cfg, cfg.output_dir / OPTIMIZER_REPORT_FILE
    )
    ingest.write_predictions(predictions, cfg.output_dir / PREDICTIONS_FINAL_FILE)
    logger.info(
        "optimized %d videos (%d queries) with lambda=%g, ranks from %s",
        len(tasks),
        len(predictions),
        cfg.lambda_penalty,
        cfg.rank_source,
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    dataset, lists = _load_inputs(cfg)
    before_predictions = {clist.query_id: clist.intervals() for clist in lists}
    final_path = cfg.output_dir / PREDICTIONS_FINAL_FILE
    rerank_path = cfg.output_dir / PREDICTIONS_RERANK_FILE
    if final_path.exists():
        after_path = final_path
    elif rerank_path.exists():
        after_path = rerank_path
    else:
        raise MissingInputError(
            "rerank",
            f"no predictions file at {final_path} or {rerank_path}",
        )
    after_predictions = ingest.load_predictions(after_path)
    mcfg = metrics.MetricsConfig()
    before = metrics.evaluate_run(before_predictions, dataset, mcfg)
    after = metrics.evaluate_run(after_predictions, dataset, mcfg)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    metrics.write_metrics_report(before, cfg.output_dir / METRICS_BEFORE_FILE)
    metrics.write_metrics_report(after, cfg.output_dir / METRICS_AFTER_FILE)
    metrics.write_comparison(before, after, cfg.output_dir / METRICS_COMPARE_FILE)
    logger.info(
        "evaluated %d queries: mean R@1 %.2f -> %.2f (after: %s)",
        before.num_queries,
        before.mean_r1,
        after.mean_r1,
        after_path.name,
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_args(args)
    compare_path = cfg.require(
        cfg.output_dir / METRICS_COMPARE_FILE, "eval", "metrics comparison file"
    )
    before, after = metrics.read_comparison(compare_path)
    table = metrics.format_comparison_table([("base", before), ("reranked", after)])
    print(table)
    with ingest.atomic_writer(cfg.output_dir / REPORT_FILE) as handle:
        handle.write(table)
        handle.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memrerank",
        description=(
            "Rerank temporal localization candidates through per-candidate "
            "narration memories, enforce a sequential start-time prior, and "
            "score recall@k at IoU thresholds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic scenario")
    p_sim.add_argument("--videos", type=int, default=3)
    p_sim.add_argument("--queries-per-video", dest="queries_per_video", type=int, default=4)
    p_sim.add_argument(
        "--candidates-per-query", dest="candidates_per_query", type=int, default=5
    )
    p_sim.add_argument("--recall-rho", dest="recall_rho", type=float, default=0.8)
    p_sim.add_argument("--jitter", type=float, default=2.0)
    p_sim.add_argument("--latent-rate", dest="latent_rate", type=float, default=0.1)
    p_sim.add_argument("--track", choices=["nlq", "goalstep"], default="goalstep")
    _add_common_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    for name, func, help_text in [
        ("plan", cmd_plan, "emit per-clip frame manifests"),
        ("narrate", cmd_narrate, "narrate clips into episodic memories"),
        ("rerank", cmd_rerank, "promote the backend's pick per query"),
        ("optimize", cmd_optimize, "enforce the sequential start-time prior"),
        ("eval", cmd_eval, "compute recall metrics before/after"),
        ("report", cmd_report, "print the before/after metrics table"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MemrerankError as exc:
        logger.error("%s", exc)
        for cls, code in EXIT_CODES.items():
            if isinstance(exc, cls):
                return code
        return 1
    except OSError as exc:
        logger.error("i/o failure: %s", exc)
        return 6


if __name__ == "__main__":
    sys.exit(main())
