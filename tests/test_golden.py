"""Golden sha256 digests of every stage output of small seed-7 runs.

A change meant to leave the outputs byte-identical keeps these digests;
a change that alters an output on purpose updates them and says why.
At 6 videos x 5 queries the stub and oracle picks leave rank 1 twice and
the optimizer leaves rank 1 in each of the six videos, so promotion and the
sequence prior both shape the pinned bytes.
"""

import hashlib

from memrerank.cli import main

# The cache's line order follows the completion order of concurrent
# narration calls, so only its stats file is pinned.
UNPINNED = {"cache/narrations.jsonl"}


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


def rerank_onward(out, backend, optimize=True):
    run(out, "rerank", "--backend", backend)
    if optimize:
        run(out, "optimize")
    run(out, "eval")
    run(out, "report")


def test_goalstep_stub_then_oracle(tmp_path):
    simulate_and_narrate(tmp_path, "goalstep")
    rerank_onward(tmp_path, "stub")
    assert digests(tmp_path) == GOALSTEP_STUB
    rerank_onward(tmp_path, "oracle")
    assert digests(tmp_path) == GOALSTEP_ORACLE


def test_nlq_stub(tmp_path):
    simulate_and_narrate(tmp_path, "nlq")
    rerank_onward(tmp_path, "stub", optimize=False)
    assert digests(tmp_path) == NLQ_STUB


GOALSTEP_STUB = {
    "annotations.json": "eb0e0eaa174329ada1500dec4c508e76bcb6d0069ee9376dc56661a9193c307d",
    "cache/narrate_stats.json": "bf2a0101891cc2d08a03a7aabd8ec1be9f2cdcf116a8c14f6e631ab8e1bfa3c1",
    "candidates.json": "62c0aef5d8ede743072200bee714ad6d642278bd358f54776d218fa89e558621",
    "manifests.jsonl": "2e08ee2a73b228b8888f84a2082c59e5a24de6f93abfc6fc375a4cc86c19a330",
    "memories.jsonl": "23c7baecb6fe1ece718df5b6880b432d3c5401a4e5a8b740afdff9b77cb6ce74",
    "metrics_after.json": "18c545d7c99d83435d936d03c4b64be5b189f77a75761e8aeec817402deb76ae",
    "metrics_before.json": "18c545d7c99d83435d936d03c4b64be5b189f77a75761e8aeec817402deb76ae",
    "metrics_compare.json": "416176c66009c94cf2b7e733f4d7826ae3749c7fd64403a056255c79c6424eeb",
    "optimizer_report.json": "9e1ef51f158897acf4f9f59a799abbb4b2211a28c700adc2bea4a663727453bc",
    "predictions_final.json": "2456e4491914556ffca860bd21d04d772cb9d7c13903a1db23b00e6ae4e56249",
    "predictions_rerank.json": "ecd885f4ea1f3c9d70edc36e586d5747e712de1fb8bc29d3942bcc458bdf74f9",
    "report.txt": "e47b8a8b9ec6e80579e52d39d35d49b9416f7ffef7be6bd00785257848c30361",
    "rerank_log.jsonl": "9912a062acdc66513fcd2fb4b7108593a6868c6dbdabae0ef0ed36c20b5128df",
    "reranked_candidates.json": "e37b66f0c57bd43f51497f4a0a197b74c169e900fff2bf03104d299e0a662cd4",
    "scenario.json": "08bf8630d5cfeed8853bfe0c6aa24a72a5260f7f250714a0f84fdd0f1bc65169",
}
# The oracle makes the stub's picks; only its logged answers differ.
GOALSTEP_ORACLE = {
    **GOALSTEP_STUB,
    "rerank_log.jsonl": "d6ece22d85d01b0b2c5ffb513113538c2f19d7989555ad25df04eebdce81e577",
}
NLQ_STUB = {
    "annotations.json": "63fa50c188528eb3bcd0ab0d7accd655c062ee4078dfeb9f412c1abcaa15d23b",
    "cache/narrate_stats.json": "bf2a0101891cc2d08a03a7aabd8ec1be9f2cdcf116a8c14f6e631ab8e1bfa3c1",
    "candidates.json": "62c0aef5d8ede743072200bee714ad6d642278bd358f54776d218fa89e558621",
    "manifests.jsonl": "2e08ee2a73b228b8888f84a2082c59e5a24de6f93abfc6fc375a4cc86c19a330",
    "memories.jsonl": "23c7baecb6fe1ece718df5b6880b432d3c5401a4e5a8b740afdff9b77cb6ce74",
    "metrics_after.json": "aeee19039961c1a521ad2b5711b22cab38f7651bcade6195a18f5cbb9027104a",
    "metrics_before.json": "18c545d7c99d83435d936d03c4b64be5b189f77a75761e8aeec817402deb76ae",
    "metrics_compare.json": "b2a9e36f5a3c9920f830ac5059adcf7305a42bb20e67003d8ea7d9dcf941a289",
    "predictions_rerank.json": "ecd885f4ea1f3c9d70edc36e586d5747e712de1fb8bc29d3942bcc458bdf74f9",
    "report.txt": "6517b429d10ef1a9b5005c69344063216ed9a3fcba820d80c7505d5acea6a386",
    "rerank_log.jsonl": "9912a062acdc66513fcd2fb4b7108593a6868c6dbdabae0ef0ed36c20b5128df",
    "reranked_candidates.json": "e37b66f0c57bd43f51497f4a0a197b74c169e900fff2bf03104d299e0a662cd4",
    "scenario.json": "362c93fed00ed398b19b09b70dd4ad43e0f434e87d49825d267ad36f0c9108fc",
}
