"""Golden sha256 digests of every stage output of small seed-7 runs.

A change meant to leave the outputs byte-identical keeps these digests;
a change that alters an output on purpose updates them and says why.
``python tests/test_golden.py`` (with ``src`` on ``PYTHONPATH``) prints
the tables the current code produces, ready to paste over the ones below.
At 6 videos x 5 queries the stub and oracle picks leave rank 1 twice.
Both abstain on the eight queries whose candidates all miss the ground
truth; those leave their videos' chains, and the optimizer keeps every
pick. Under ``--rank-source pre_rerank`` no query is left out, and the
optimizer leaves rank 1 in each of the six videos. So promotion, the
left-out rule and the sequence prior all shape the pinned bytes.
"""

import hashlib

from memrerank.cli import main

# The caches' line order follows the completion order of concurrent
# backend calls, and their records carry ``created_at``, so only the
# narration stats file is pinned.
UNPINNED = {"cache/narrations.jsonl", "cache/selections.jsonl"}


def digests(out):
    found = {}
    for path in sorted(out.rglob("*")):
        name = path.relative_to(out).as_posix()
        if path.is_file() and name not in UNPINNED:
            found[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def run(out, stage, *flags):
    assert main([stage, "--out", str(out), *map(str, flags)]) == 0


def simulate_and_narrate(out, track):
    run(out, "simulate", "--seed", 7, "--videos", 6, "--queries-per-video", 5, "--track", track)
    run(out, "plan")
    run(out, "narrate", "--backend", "stub")


def optimize_onward(out, *flags):
    run(out, "optimize", *flags)
    run(out, "eval")
    run(out, "report")


def rerank_onward(out, backend, optimize=True):
    run(out, "rerank", "--backend", backend)
    if optimize:
        run(out, "optimize")
    run(out, "eval")
    run(out, "report")


# Each run yields the name of a table below once its outputs should match it.
def goalstep_stub_then_oracle(out):
    simulate_and_narrate(out, "goalstep")
    rerank_onward(out, "stub")
    yield "GOALSTEP_STUB"
    rerank_onward(out, "oracle")
    yield "GOALSTEP_ORACLE"
    # The second stub rerank is served by the first one's cached picks.
    rerank_onward(out, "stub")
    yield "GOALSTEP_STUB"


def goalstep_optimizer_settings(out):
    simulate_and_narrate(out, "goalstep")
    rerank_onward(out, "stub")
    yield "GOALSTEP_STUB"
    optimize_onward(out, "--rank-source", "pre_rerank")
    yield "GOALSTEP_PRE_RERANK"
    # 0.1 is not a power of two: its integer ratio has a large numerator and
    # denominator, which scale every integer cost of the DP.
    optimize_onward(out, "--lambda", 0.1)
    yield "GOALSTEP_LAMBDA_0_1"


def nlq_stub(out):
    simulate_and_narrate(out, "nlq")
    rerank_onward(out, "stub", optimize=False)
    yield "NLQ_STUB"


RUNS = (goalstep_stub_then_oracle, goalstep_optimizer_settings, nlq_stub)


def check(run_, out):
    for name in run_(out):
        assert digests(out) == globals()[name], name


def test_goalstep_stub_then_oracle(tmp_path, caplog):
    with caplog.at_level("INFO", logger="memrerank"):
        check(goalstep_stub_then_oracle, tmp_path)
    calls = [m.split("; ")[1] for m in caplog.messages if m.startswith("reranked ")]
    assert calls == [
        "0 cached, 30 backend calls) with backend 'stub'",
        "0 cached, 30 backend calls) with backend 'oracle'",
        "30 cached, 0 backend calls) with backend 'stub'",
    ]


def test_goalstep_optimizer_settings(tmp_path):
    check(goalstep_optimizer_settings, tmp_path)


def test_nlq_stub(tmp_path):
    check(nlq_stub, tmp_path)


GOALSTEP_STUB = {
    "annotations.json": "eb0e0eaa174329ada1500dec4c508e76bcb6d0069ee9376dc56661a9193c307d",
    "cache/narrate_stats.json": "bf2a0101891cc2d08a03a7aabd8ec1be9f2cdcf116a8c14f6e631ab8e1bfa3c1",
    "candidates.json": "62c0aef5d8ede743072200bee714ad6d642278bd358f54776d218fa89e558621",
    "manifests.jsonl": "b5c08f9c17ef1215dfe105de13f5386e76bd086b57bd57c6e34264ec9b0ab471",
    "memories.jsonl": "b5e76214a1b1295453a31cf2f2d10adf9f558f1f10a02e4d8b03721650bd57af",
    "metrics_after.json": "aeee19039961c1a521ad2b5711b22cab38f7651bcade6195a18f5cbb9027104a",
    "metrics_before.json": "18c545d7c99d83435d936d03c4b64be5b189f77a75761e8aeec817402deb76ae",
    "metrics_compare.json": "b2a9e36f5a3c9920f830ac5059adcf7305a42bb20e67003d8ea7d9dcf941a289",
    "optimizer_report.json": "d02014997618f9316b373a511f63b26c0f11d604cf0a1c70e450c80500e6c5c7",
    "predictions_final.json": "ecd885f4ea1f3c9d70edc36e586d5747e712de1fb8bc29d3942bcc458bdf74f9",
    "predictions_rerank.json": "ecd885f4ea1f3c9d70edc36e586d5747e712de1fb8bc29d3942bcc458bdf74f9",
    "report.txt": "6517b429d10ef1a9b5005c69344063216ed9a3fcba820d80c7505d5acea6a386",
    "rerank_log.jsonl": "9912a062acdc66513fcd2fb4b7108593a6868c6dbdabae0ef0ed36c20b5128df",
    "reranked_candidates.json": "e37b66f0c57bd43f51497f4a0a197b74c169e900fff2bf03104d299e0a662cd4",
    "scenario.json": "80b19c2804bb66383874a864391dd75382585c3dd8d106e5961bd42654111ea7",
}
# The oracle makes the stub's picks and abstains on the same eight
# queries, whose candidates all miss the ground truth, so only the
# abstentions' raw answers in the rerank log differ from the stub run.
GOALSTEP_ORACLE = {
    **GOALSTEP_STUB,
    "rerank_log.jsonl": "08358ee51a1398043a32d6d7e4bca36438a598f3284746ae6268455d307d4346",
}
# pre_rerank reads no rerank log, so every query stays in its chain, and the
# optimizer leaves the base lists' rank 1 in each of the six videos.
GOALSTEP_PRE_RERANK = {
    **GOALSTEP_STUB,
    "metrics_after.json": "18c545d7c99d83435d936d03c4b64be5b189f77a75761e8aeec817402deb76ae",
    "metrics_compare.json": "416176c66009c94cf2b7e733f4d7826ae3749c7fd64403a056255c79c6424eeb",
    "optimizer_report.json": "5ff39b4817ff886710e02c99fcf71b9d3d2b6e4e51fa0aca271a7d809b619e21",
    "predictions_final.json": "2456e4491914556ffca860bd21d04d772cb9d7c13903a1db23b00e6ae4e56249",
    "report.txt": "e47b8a8b9ec6e80579e52d39d35d49b9416f7ffef7be6bd00785257848c30361",
}
# With the abstentions left out, lambda 0.1 keeps the picks lambda 1 keeps;
# only the report's lambda and costs differ.
GOALSTEP_LAMBDA_0_1 = {
    **GOALSTEP_STUB,
    "optimizer_report.json": "6f5e105371486f989290cd603e8f87d7be0743acd79ad9918676ce022e2371c9",
}
NLQ_STUB = {
    "annotations.json": "63fa50c188528eb3bcd0ab0d7accd655c062ee4078dfeb9f412c1abcaa15d23b",
    "cache/narrate_stats.json": "bf2a0101891cc2d08a03a7aabd8ec1be9f2cdcf116a8c14f6e631ab8e1bfa3c1",
    "candidates.json": "62c0aef5d8ede743072200bee714ad6d642278bd358f54776d218fa89e558621",
    "manifests.jsonl": "b5c08f9c17ef1215dfe105de13f5386e76bd086b57bd57c6e34264ec9b0ab471",
    "memories.jsonl": "490feac2d3b5942a68851600dec84a61595ae13728b9339d3486ba913de8f5d2",
    "metrics_after.json": "aeee19039961c1a521ad2b5711b22cab38f7651bcade6195a18f5cbb9027104a",
    "metrics_before.json": "18c545d7c99d83435d936d03c4b64be5b189f77a75761e8aeec817402deb76ae",
    "metrics_compare.json": "b2a9e36f5a3c9920f830ac5059adcf7305a42bb20e67003d8ea7d9dcf941a289",
    "predictions_rerank.json": "ecd885f4ea1f3c9d70edc36e586d5747e712de1fb8bc29d3942bcc458bdf74f9",
    "report.txt": "6517b429d10ef1a9b5005c69344063216ed9a3fcba820d80c7505d5acea6a386",
    "rerank_log.jsonl": "9912a062acdc66513fcd2fb4b7108593a6868c6dbdabae0ef0ed36c20b5128df",
    "reranked_candidates.json": "e37b66f0c57bd43f51497f4a0a197b74c169e900fff2bf03104d299e0a662cd4",
    "scenario.json": "7b6082019ae2fa8706702d4803a902f327dfabd6625e2ee20aa40510879fe59c",
}


def print_tables():
    """Print the table of every name the runs yield: a run's first table in
    full, each later one as the entries that differ from that first."""
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    lines, printed = [], set()
    for run_ in RUNS:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            out = Path(tmp)
            first = None
            for name in run_(out):
                found = digests(out)
                first = first or (name, found)
                if name in printed:
                    continue
                printed.add(name)
                lines.append(f"{name} = {{")
                if name != first[0]:
                    lines.append(f"    **{first[0]},")
                    found = {k: v for k, v in found.items() if first[1].get(k) != v}
                lines.extend(f'    "{file}": "{digest}",' for file, digest in found.items())
                lines.append("}")
    print("\n".join(lines))


if __name__ == "__main__":
    print_tables()
