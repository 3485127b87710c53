"""Observer-output goldens: what every observer sees, pinned by hash.

Each world is run once per observer and the observer's output is
hashed: the :class:`~repro.obs.ObsSession` report, the cycle
profiler's collapsed stacks, and the XPCSan report under an armed
:class:`~repro.san.SanSession`.  The model checker's counterexample
replay text is pinned for each seeded-bug configuration as well.  The
hashes were recorded before the observers moved onto
:mod:`repro.probe`; any change in what an observer records (a span
opened at a different cycle, a PMU event lost, a sanitizer access
dropped) shows up here as a hash mismatch.

Worlds: the ``snap.scenarios`` fig5 and fig7 shapes, and generated
programs 0-19, each run on every executor of the differential roster.
"""

import hashlib
import json
import os

import pytest

import repro.obs as obs
import repro.san as san
from repro.proptest.executors import default_executor_factories
from repro.proptest.gen import generate
from repro.snap.scenarios import SCENARIOS
from repro.verify.model import ModelChecker, ModelConfig
from tests.verify.test_model_checker import (leaky_swapseg_mutator,
                                             no_pop_mutator)

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(
    san.__file__))) + os.sep


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _drivers(world: str):
    """``[(label, build, drive)]`` for one world."""
    if world in SCENARIOS:
        def build(name=world):
            return SCENARIOS[name]()

        def drive(built):
            state, ops = built
            for op in ops:
                state.step(op)
        return [(world, build, drive)]
    program = generate(int(world.split(":")[1]))
    return [(f"{world}:{name}", factory,
             lambda executor: executor.run(program))
            for name, factory in default_executor_factories()]


def _report(world: str) -> str:
    out = []
    for label, build, drive in _drivers(world):
        session = obs.ObsSession()
        with obs.active(session):
            drive(build())
        artifact = session.report(label)
        artifact["spans"].pop("legacy_dropped", None)
        out.append(json.dumps(artifact, sort_keys=True))
    return "\n".join(out)


def _profile(world: str) -> str:
    out = []
    for label, build, drive in _drivers(world):
        session = obs.ObsSession(profile=True)
        with obs.active(session):
            drive(build())
        out.append(f"# {label}\n" + session.profiler.collapsed_text())
    return "\n".join(out)


def _san(world: str) -> str:
    out = []
    for label, build, drive in _drivers(world):
        session = san.SanSession()
        with san.active(session):
            drive(build())
        text = json.dumps(session.report(), sort_keys=True)
        out.append(f"# {label}\n" + text.replace(SRC_ROOT, ""))
    return "\n".join(out)


OBSERVERS = {"report": _report, "profile": _profile, "san": _san}

WORLDS = ["fig5", "fig7"] + [f"program:{seed}" for seed in range(20)]

GOLDEN = {
    "fig5": {"profile": "dc57ca8451b546b1f73b8af71bbe6dc4a1a39509d44e572e599c1b944cd60297", "report": "bc46dc24e95f269b932d0d423db43581a7c2a861954dac768db8d178a2a0a81c", "san": "6120b99bdfffd317582ab8791684f1ba825e212f020b810f7117e718e39c5e04"},
    "fig7": {"profile": "20ec99a45add727008d0ed7da1991bc5dc8e59c5eeea3946b2d356baac221c8e", "report": "57775da1bfcf45fb661ee7cd7eba268c1bfc7c869f44326955fd868cb77396cc", "san": "15b64c940be9455bd595ba7f74b0c7c843a646477dd0d59458415e363f977fde"},
    "program:0": {"profile": "cabbd740045a796e251209ade42cd3f07a872cd0ea2b41c077e97e95ec19a4d7", "report": "0bcaeaa4f4791213b702a743103d684bb48f3e947425b3117e60b4e430bb020b", "san": "c831edb151e18330aa0418952ea0e86aff5826dcbb76eab1015b655f53259222"},
    "program:1": {"profile": "f30eb28c26bba175748ae68a9e46f58ac83b38dba739f83d013940af648014de", "report": "368be64680e86796d0e51046f4a1fee53f5021e4aac93a6c841d0c4782c9ab56", "san": "81aecab68ca447c1c113b789dbb0a7c50425f85bd07465b109e9fb9cd6f83f3b"},
    "program:2": {"profile": "f505000ceb57efa8e68d3466d14b372e1f88cde2311dbc65ac96578e257e224e", "report": "7546ffe7720487f9cb2724fbdcf4c127600b61025cdb8c1599d59e7cdb601e65", "san": "aa7bb012c5445d29bce5752077ae83968d87f2da2d5c17601dc8ff33710dcbe7"},
    "program:3": {"profile": "f4fe132dc40da8a0238ddd0bb8eb7b780195e3bfdcaf99799db9186f7f198677", "report": "780281015a17b2352210fb7efba15ade7d43df7da9f7d968328e3c278d2b8396", "san": "71fe818bd235998574461cd105c5783ceab1136006ba5312452bea2eadea6228"},
    "program:4": {"profile": "88bd9a2612b52d2b41ae0cc22763d10c59e34f5b0f4a0547c78184e417bb4ef5", "report": "bbe43e1c69abc2ee64304158b136f9b3403912dd6e9762064538954bf78b4d73", "san": "56c491b89712b8b3f5c8a81b249d68d4400f5c14ad9365c1b9cd201212ccf067"},
    "program:5": {"profile": "eb6e959f43b10db9a29bc72dc12b49665a54a18b5163ce2d29bfcad26e5b5678", "report": "856c072c272c89bb8cfb3c03f1a60597fbfe9e853d9c808366e7cb4b2bbc2155", "san": "47a7a174bd122bee10d0d9da50d11da8d29f0d690bc10b0e93d048502fd4b6f6"},
    "program:6": {"profile": "e87045bf868d82a6e77c70fbdd90da2f8bfd2d3c0cd7742f43363f52862cf566", "report": "387af93acad6780050f1c2468610de306b3c48f1ef685f1a8e777c2bcd4505e6", "san": "c651a0ad770f6fbf3f59b68857f235d572ecd7395a2982276f98ba986dec4fd3"},
    "program:7": {"profile": "b3f97fa11aeac3084d2f72226ae1de3a81c7cec08765b99ae9a88cede279b2b3", "report": "b46c9c588aa6f663b550a15cbcf2e2d5c2695dfb304dc21d68d7151ea21cb5f4", "san": "12c8f1771a296178af145920c637662e5a6db1063b56230dded94c1c0a2694b1"},
    "program:8": {"profile": "a8dfc8aac097399bfc11429630c559efadd84c7d9bf4a37c93b00df2f53a7667", "report": "355994019a1fbd53bb53a0c7fc9d8f776cf64abe8e4fd926881e4b2aa8ebf2ce", "san": "fd8dd0a6572a1720464d9b17d17f790e919bddad67a81ed3dd8c38406d410cbe"},
    "program:9": {"profile": "4b55c2d9a6f47a12d2d462748a905f8938443d0a1a144295ac0348508d21020b", "report": "9e9b876e46bcb567a61726adc90168769b4129eb0e4334dff3f90798f67e2cbe", "san": "ffe025c072ebab55d983928ae8d928185e617e317071eabbb936aa7f08a05e2a"},
    "program:10": {"profile": "1ccda6502b2776891de02a5f9533b15379c5e190f0be972f72576972aad0005e", "report": "743018411d8c0d53448c456836c4407a2d55c4ec8140acaa046c4c4486586b71", "san": "04632a7dfb8a7b225c587f04a1a43d188caef91d911e03cc90ef577d046bea7b"},
    "program:11": {"profile": "b93f6e919e9d62286c61fdc4c1e566f271342dcdc97ae29a6e949e34608fffa7", "report": "df5edca151d54e82e037eebf6b7f18c700a2cbda90eedc091b4869980757e365", "san": "321f7a4179b081c71d11d24d36f0a2a75d7103f6506519f6d823abbe4ccdc71a"},
    "program:12": {"profile": "62909629bb91b39e4673d543413a6a7773402c3b41301e0ecf9b6b2e81f04d81", "report": "ea8535f2b57aeed5ad9a5f17623b769afea85ea53ec31430201d424bfe3bb50b", "san": "549c12b0c5012a35fc789fa6b328054a6281f455918dfc8287c4258b78fc6d9a"},
    "program:13": {"profile": "13656a3157ae14aa5adee3bdec295e57f5594dac31b5a95cf2305178411f01b9", "report": "627153865671677689c85bb51cf2380026ae51dddc4e17b68ef5b7fe06b70ff4", "san": "ffe212991d97e6c4679df7eb4af820787e52a70e7874dd4bbe0a9e275413fc3d"},
    "program:14": {"profile": "1e46f42bbdee60436d3e35349b58717284f87499db21a80b01dd881af0c52d6e", "report": "5a9f58201e927f3ed850ed6556f1497c025ef9dc3a726a3afa9d8aab025041d4", "san": "0c65926e53e5460c7ecefa2afebc9db5e1e0d6bb46aa95d83cd4c002d720ea96"},
    "program:15": {"profile": "7033fdcf8d1d187ecb3f1f4789ffbe01a840cbacda81290729986216d13f5b17", "report": "4f5a3feeda364ca279071c66c81f763c2be7b9befa69015335604914da9a5bc9", "san": "117f76788f5056cf3717af4ddbae251adeb575eafeebbce7338b538814869788"},
    "program:16": {"profile": "16bf24ea270cb5778777c67046607fd494f858247e5251fb3ef6d828dce5b19d", "report": "6cf68604f67db9928124bbe7578ed46164056691cf44c2a47d94015b25671bb6", "san": "4ab4a8422dfb6760a3430e93be62b599bfc8e895d280fb272e1d03058c6b29d3"},
    "program:17": {"profile": "092454e7d9c8291a6a73528cf2152c07ce35599a47e3dc244c8485205471ea6d", "report": "9f4307015aa813039e335676c9871e4df5575e28a03c8731aeff2ad776cb38f8", "san": "f8e4f5c7c22246fd45785f76ee7a4e59ddbb53613be0e8f460cc21c309bfd443"},
    "program:18": {"profile": "3b1f3f53e4a30be82334cdc20f8a5c7faf276d2f2efac7b7cf3889e56831fe0f", "report": "4144b2099cd7b5b599ad657e21ef238bca76ae6afd822290131a902395d529c8", "san": "55a33c2a61df258cbf5d238c55c64a279b4e390b216f526452d01b698957747d"},
    "program:19": {"profile": "0ea5f826a062c916351c2499a6d486c68afda32166d70b351a8a2feec84bfd79", "report": "daffcabbb256d83d16361b4ba6ab1489049dedd4863252d11c2277b8ecbb690d", "san": "f5d9dc36c38193e2ab9b6e0af6e7a1b559ca25ede6c874bcacf180e5779d17e6"},
}

MUTATORS = {"leaky_swapseg": leaky_swapseg_mutator,
            "no_pop": no_pop_mutator}

TRACE_GOLDEN = {
    "leaky_swapseg": "90bcc87ce326be26f03ecd79d303567d403b5e1f36d494a4d270b1bd3d4b876e",
    "no_pop": "5374114242f1c1675c6de7acd0d63ec330559e3e74ca1d247eb000aac637af32",
}


@pytest.mark.parametrize("observer", sorted(OBSERVERS))
@pytest.mark.parametrize("world", WORLDS)
def test_observer_output_matches_golden(world, observer):
    assert _sha(OBSERVERS[observer](world)) == GOLDEN[world][observer]


@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_counterexample_trace_matches_golden(mutator):
    config = ModelConfig(world_mutator=MUTATORS[mutator])
    result = ModelChecker(config).explore(stop_on_first=True)
    trace_text = result.counterexamples[0].trace_text
    assert _sha(trace_text) == TRACE_GOLDEN[mutator]


if __name__ == "__main__":      # regenerate: python -m tests.obs.test_probe_goldens
    print("GOLDEN = {")
    for w in WORLDS:
        hashes = {name: _sha(fn(w)) for name, fn in sorted(OBSERVERS.items())}
        print(f"    {w!r}: {hashes!r},")
    print("}")
    print("TRACE_GOLDEN = {")
    for name, mutator in sorted(MUTATORS.items()):
        ce = ModelChecker(ModelConfig(world_mutator=mutator)).explore(
            stop_on_first=True).counterexamples[0]
        print(f"    {name!r}: {_sha(ce.trace_text)!r},")
    print("}")
