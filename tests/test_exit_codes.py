"""Property tests: no setting and no stage file ends in a traceback or a hang.

The first test draws up to three ``RunConfig`` settings, each from its
field's type and choices, and up to two ``ScenarioKnobs`` knobs at their
extremes, and runs all seven stages in-process on a scenario of at most
2 videos x 3 queries. The
second takes a finished run and breaks one stage file: it drops a key,
changes a value's type, puts in NaN, an empty list or a 401-digit integer,
or truncates a line; then it runs each stage that reads the file, and
``rerank`` with the oracle as well as the stub. Their
one invariant: each stage exits 0, or exits 2-6 with a message naming a
setting or a file, within ``TIME_BOUND_S``, and every JSON file the run
wrote holds no NaN or infinity. A ``c_max`` past the bound
exits 2 before any thread is constructed.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import tempfile
import threading
import time
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import memrerank.cli as cli
from memrerank.narration import MAX_C_MAX
from memrerank.synth import ScenarioKnobs

from helpers import run_logged

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
TIME_BOUND_S = 5.0
STAGE_NAMES = tuple(stage.name for stage in cli.STAGES)
# What a refusal names: a setting, a knob, a stage or a file.
NAMES = (
    *(f.name for f in fields(cli.RunConfig)),
    *(f.name for f in fields(ScenarioKnobs)),
    *(f"'{name}'" for name in STAGE_NAMES),
    *(name for stage in cli.STAGES for name in stage.writes),
)
PATH_SETTINGS = {f.name for f in fields(cli.RunConfig) if f.type.startswith("Path")}
HUGE = 10**400  # past the float range

# Each setting kind's values: valid ones at the extremes, and ones of
# another type.
FLOATS = [0.0, -1.0, 5e-324, 1e-9, 0.5, 20.0, 1e300, math.nan, math.inf, HUGE, "1", True]
INTS = [-3, 0, 1, 2, 5, MAX_C_MAX, MAX_C_MAX + 1, 10**6, HUGE, 2.5, "1", False]
# Each knob flag's values, by the knob's type, so a new knob is drawn too.
# No drawn count passes 2, so a scenario past 2 videos x 3 queries is never
# drawn, nor one that starts many threads.
SCENARIO = ["--videos=2", "--queries-per-video=3"]
SMALL_INTS = ["-1", "0", "1", "2"]
KNOB_FLOATS = ["nan", "inf", "-inf", "-0.5", "0", "5e-324", "0.5", "1", "1.5", "1e300"]
KNOB_FLAGS = {
    f.metadata["flag"]: SMALL_INTS if f.type == "int" else KNOB_FLOATS
    for f in fields(ScenarioKnobs)
}


def run_stage(argv: list) -> tuple[int, list[str], float]:
    """Exit code, error messages and wall time of one in-process stage."""
    started = time.monotonic()
    code, messages = run_logged(argv)
    return code, messages, time.monotonic() - started


def refuse_constant(name: str):
    raise ValueError(f"non-finite constant {name}")


def check(
    stage: str, code: int, messages: list[str], elapsed: float, root: Path, given: Path
) -> None:
    """The stage's exit, its time, and that every JSON file under ``root`` but
    the one the test ``given`` it holds only finite numbers."""
    assert elapsed < TIME_BOUND_S, (stage, elapsed)
    if code:
        assert 2 <= code <= 6, (stage, code, messages)
        assert any(name in message for message in messages for name in NAMES), (
            stage, code, messages,
        )
    for path in root.rglob("*.json"):
        if path != given:
            json.loads(path.read_text(), parse_constant=refuse_constant)


def no_remote_endpoint():
    """An environment without the remote backend's endpoint, so a drawn
    ``remote`` backend is refused and nothing leaves the machine."""
    return mock.patch.dict(
        os.environ, {"MEMRERANK_API_BASE": "", "MEMRERANK_API_KEY": ""}
    )


def setting_values(f) -> list:
    """A setting's drawn values; a path is a name under the run's root."""
    kind = f.type.removesuffix(" | None")
    if f.metadata["choices"]:
        return [*f.metadata["choices"], "bogus"]
    if kind == "Path":
        prompts = ("prompt.txt", "blank.txt") if f.name == "narration_prompt" else ()
        return ["", "missing", *prompts]
    return {
        "float": FLOATS,
        "int": INTS,
        "bool": [True, False, "yes"],
        "str": ["echo {video} {t} {out}", 7],
    }[kind]


@st.composite
def drawn_settings(draw) -> dict:
    """Up to three settings, each drawn from its values, by name; so few
    that the stages run past config parsing in most examples."""
    chosen = draw(st.lists(st.sampled_from(fields(cli.RunConfig)), max_size=3, unique=True))
    return {f.name: draw(st.sampled_from(setting_values(f))) for f in chosen}


def config_file(drawn: dict, root: Path) -> Path:
    """The config file of the drawn settings, its paths resolved under ``root``."""
    config: dict = {"paths": {}}
    for name, value in drawn.items():
        if name in PATH_SETTINGS:
            value = str(root / value) if value else ""
        (config["paths"] if name in cli._PATH_KEYS else config)[name] = value
    (root / "prompt.txt").write_text("Say what the hands do.\n")
    (root / "blank.txt").write_text(" \n")
    path = root / "config.json"
    path.write_text(json.dumps(config))
    return path


@st.composite
def drawn_knobs(draw) -> list[str]:
    """``simulate`` flags: the track and up to two knobs, each overriding
    the ``SCENARIO`` size. A value follows "=", as "-inf" alone is read as a flag."""
    chosen = draw(st.lists(st.sampled_from(sorted(KNOB_FLAGS)), max_size=2, unique=True))
    flags = [f"{flag}={draw(st.sampled_from(KNOB_FLAGS[flag]))}" for flag in chosen]
    return [*SCENARIO, *flags, "--track", draw(st.sampled_from(["goalstep", "nlq"]))]


@PROPERTY
@given(drawn=drawn_settings(), knobs=drawn_knobs())
@example(drawn={"c_max": 10**6}, knobs=SCENARIO)
def test_drawn_settings_and_knobs_exit_with_a_message(drawn, knobs):
    with tempfile.TemporaryDirectory() as root:
        config = config_file(drawn, Path(root))
        c_max = drawn.get("c_max")
        past_bound = type(c_max) is int and c_max > MAX_C_MAX
        constructed = []

        def no_thread(*args, **kwargs):
            constructed.append(args)
            raise AssertionError("a thread was constructed")

        threads = mock.patch.object(threading, "Thread", no_thread)
        with no_remote_endpoint(), threads if past_bound else contextlib.nullcontext():
            for stage in STAGE_NAMES:
                flags = ["--out", Path(root) / "run", "--config", config]
                code, messages, elapsed = run_stage(
                    [stage, *flags, *(knobs if stage == "simulate" else ())]
                )
                check(stage, code, messages, elapsed, Path(root), config)
                assert code == 2 or not past_bound, (stage, code, messages)
        assert constructed == []


# The stage files some stage reads, each with the stages that read it.
READERS = {
    name: tuple(stage.name for stage in cli.STAGES if name in stage.reads)
    for stage in cli.STAGES
    for name in stage.writes
    if any(name in other.reads for other in cli.STAGES)
}
MUTATIONS = ("drop-key", "change-type", "nan", "empty-list", "huge-int", "truncate")


@pytest.fixture(scope="module")
def finished(tmp_path_factory) -> Path:
    """A run directory with every stage's files, its caches under it."""
    out = tmp_path_factory.mktemp("finished")
    for stage in STAGE_NAMES:
        flags = [*SCENARIO, "--seed=7"] if stage == "simulate" else []
        assert run_stage([stage, "--out", out, "--backend", "stub", *flags])[0] == 0
    return out


def nodes(value, path=()):
    """Every (path, value) pair of a parsed JSON value, the root first."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from nodes(child, (*path, key))


def eligible(mutation: str, path, value) -> bool:
    if mutation == "drop-key":
        return isinstance(value, dict) and bool(value)
    if mutation == "empty-list":
        return isinstance(value, list) and bool(value)
    if mutation in ("nan", "huge-int"):
        return type(value) in (int, float)
    return bool(path)  # change-type: any value below the root


def mutated(mutation: str, value, pick: int):
    """``value`` with its ``pick``-th eligible node changed, or None when it has none."""
    targets = [(path, node) for path, node in nodes(value) if eligible(mutation, path, node)]
    if not targets:
        return None
    path, node = targets[pick % len(targets)]
    if mutation == "drop-key":
        del node[sorted(node)[pick % len(node)]]
        return value
    new = {"empty-list": [], "nan": math.nan, "huge-int": HUGE}.get(mutation)
    if mutation == "change-type":
        new = "1" if type(node) in (int, float, bool) else 1 if isinstance(node, str) else None
    if not path:
        return new
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return value


def mutate_file(path: Path, mutation: str, pick: int) -> bool:
    """Break ``path`` in place; False when it has nothing to break."""
    text = path.read_text()
    if mutation == "truncate":
        path.write_text(text[: pick % max(1, len(text) - 1)])
        return True
    if path.suffix == ".jsonl":
        lines = text.splitlines()
        index = pick % len(lines)
        record = mutated(mutation, json.loads(lines[index]), pick)
        if record is None:
            return False
        lines[index] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        return True
    value = mutated(mutation, json.loads(text), pick)
    if value is None:
        return False
    path.write_text(json.dumps(value))
    return True


@PROPERTY
@given(
    name=st.sampled_from(sorted(READERS)),
    mutation=st.sampled_from(MUTATIONS),
    pick=st.integers(min_value=0, max_value=10**6),
)
# A metrics report whose cells are not the R@1/R@5 x IoU 0.3/0.5 grid, and
# a manifest sampling rate past the float range: both once ended in a
# traceback. A query without its ground truth (v000-q001's "gt" is the key
# pick 4 drops) once stopped the oracle with a message naming no file.
@example(name=cli.METRICS_COMPARE_FILE, mutation="empty-list", pick=1)
@example(name=cli.MANIFESTS_FILE, mutation="huge-int", pick=2)
@example(name=cli.ANNOTATIONS_FILE, mutation="drop-key", pick=4)
def test_broken_stage_file_exits_with_a_message(finished, name, mutation, pick):
    with tempfile.TemporaryDirectory() as root:
        out = Path(root) / "run"
        shutil.copytree(finished, out)
        if not mutate_file(out / name, mutation, pick):
            return
        for stage in reversed(READERS[name]):  # a stage deletes the files derived from its own
            for backend in ("stub", "oracle") if stage == "rerank" else ("stub",):
                with no_remote_endpoint():
                    code, messages, elapsed = run_stage(
                        [stage, "--out", out, "--backend", backend]
                    )
                check(stage, code, messages, elapsed, out, out / name)
