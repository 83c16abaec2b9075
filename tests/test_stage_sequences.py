"""Model-based test of stage sequences.

A state machine runs the seven stages through ``cli.main`` over one run
directory, one at a time in any order or a run of them in pipeline
order; it re-simulates the directory with another seed or latent-twin
rate, and moves the caches between a shared and a separate directory.
Its one invariant: a stage either exits non-zero naming a stage or a
stage file, or leaves the run directory's stage files byte-identical to
those of a fresh directory that runs, from ``simulate`` on with a fresh
cache, the stages whose files the run directory holds. The caches, and
``narrate_stats.json`` with them, are not compared.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
    run_state_machine_as_test,
)

import memrerank.cli as cli

from helpers import run_logged

SIZE = ["--videos", 3, "--queries-per-video", 3]
STAGE_NAMES = tuple(stage.name for stage in cli.STAGES)
# What a refusal names: a stage, or a file a stage writes.
NAMES = (
    *(f"'{name}'" for name in STAGE_NAMES),
    *(name for stage in cli.STAGES for name in stage.writes),
)

# Each simulate knob's two values, the one to the other.
OTHER = {1: 2, 2: 1, 0.1: 0.9, 0.9: 0.1}

# The stage files of a fresh run, by (seed, latent rate, stages run).
FRESH: dict[tuple, dict[str, bytes]] = {}


def run(out: Path, stage: str, *flags) -> tuple[int, list[str]]:
    """Exit code and error messages of ``stage`` run over ``out``."""
    return run_logged([stage, "--out", out, "--backend", "stub", *flags])


def stage_files(out: Path) -> dict[str, bytes]:
    """The bytes of each file directly under ``out``: its stage files,
    without the default cache directory's."""
    return {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}


def fresh_files(seed: int, latent_rate: float, stages: tuple[str, ...]) -> dict[str, bytes]:
    """The stage files of ``stages`` run in a fresh directory, from a
    ``simulate`` of ``seed`` and ``latent_rate`` on."""
    key = (seed, latent_rate, stages)
    if key not in FRESH:
        with tempfile.TemporaryDirectory() as root:
            out = Path(root)
            for stage in stages:
                flags = [*SIZE, "--seed", seed, "--latent-rate", latent_rate]
                assert run(out, stage, *(flags if stage == "simulate" else ())) == (0, [])
            FRESH[key] = stage_files(out)
    return FRESH[key]


class StageSequences(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp())
        self.out = self.root / "run"
        self.cache_flags: list = []
        self.caches = 0
        self.scenario = None  # the seed and latent rate of the last simulate

    def teardown(self):
        shutil.rmtree(self.root)

    def stage(self, stage: str, *flags) -> None:
        code, messages = run(self.out, stage, *flags, *self.cache_flags)
        if code:
            assert any(word in message for message in messages for word in NAMES), (
                stage, code, messages,
            )
            return
        stages = tuple(
            s.name for s in cli.STAGES if any((self.out / name).exists() for name in s.writes)
        )
        fresh = fresh_files(*self.scenario, stages)
        files = stage_files(self.out)
        names = sorted(files.keys() | fresh.keys())
        assert [name for name in names if files.get(name) != fresh.get(name)] == [], (stage, stages)

    @initialize()
    def first_simulate(self):
        self.simulate(seed=1, latent_rate=0.1)

    def simulate(self, seed, latent_rate):
        self.scenario = (seed, latent_rate)
        self.stage("simulate", *SIZE, "--seed", seed, "--latent-rate", latent_rate)

    @rule(knob=st.sampled_from(["seed", "latent_rate"]))
    def resimulate(self, knob):
        """Simulate again with one knob changed."""
        seed, latent_rate = self.scenario
        if knob == "seed":
            self.simulate(OTHER[seed], latent_rate)
        else:
            self.simulate(seed, OTHER[latent_rate])

    @rule(stage=st.sampled_from(STAGE_NAMES[1:]))
    def one_stage(self, stage):
        self.stage(stage)

    @rule(last=st.sampled_from(STAGE_NAMES[1:]))
    def stages_through(self, last):
        """Each stage from plan through ``last``, in pipeline order."""
        for stage in STAGE_NAMES[1 : STAGE_NAMES.index(last) + 1]:
            self.stage(stage)

    @rule(shared=st.booleans())
    def cache_dir(self, shared):
        """Keep the caches in the directory every run shares, or in a new one."""
        if not shared:
            self.caches += 1
        self.cache_flags = ["--cache-dir", self.root / f"cache-{0 if shared else self.caches}"]


def test_stage_sequences():
    run_state_machine_as_test(
        StageSequences,
        settings=settings(
            derandomize=True,
            database=None,
            deadline=None,
            max_examples=25,
            stateful_step_count=30,
        ),
    )
