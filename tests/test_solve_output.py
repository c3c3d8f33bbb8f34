"""`homrecol solve` output pinned byte for byte.

Each entry is the sha256 of the solve stdout on one instance: `gen`
families (two cycle wraps, the figure eight, random seeds 0-49 with the
default sizes), the five constructions and 20 seeded girth5 instances
(`random_girth5_instance(Random(seed), 4 + seed % 7)`, seeds 0-19), and
two disjoint unions (see `disjoint_union`), the last four kinds written
with `instance_to_dict`.  The unions share one solve across components, so
state carried over from one component to the next shows here too.
A change to the solver that alters any move list or obstruction shows here;
if the change is intended, recompute the digests and say why in CHANGES.md.
"""

import hashlib
import random

import pytest

from homrecol import families
from homrecol.cli import run
from homrecol.graphs import Graph
from homrecol.jsonio import dumps, instance_to_dict
from homrecol.solver import REFLEXIVE, Instance

GEN = {
    "cycle-wrap-2000-4-40": ["--family", "cycle-wrap", "--g-len", "2000", "--h-len", "4", "--shift", "40"],
    "cycle-wrap-13-4-1": ["--family", "cycle-wrap", "--g-len", "13", "--h-len", "4", "--shift", "1"],
    "figure-eight": ["--family", "figure-eight"],
    **{f"random-{s}": ["--family", "random", "--seed", str(s)] for s in range(50)},
}
CONSTRUCTED = ("figure_eight", "double_bridge", "locked_link", "twisted_loop", "double_turn")
GIRTH5_SEEDS = range(20)
UNIONS = ("union-interleaved", "union-then-locked-link")

DIGESTS = {
    "cycle-wrap-2000-4-40": "6a6af87f226101a650b231f1378e3deff89a6b8f716e26a9b0f8f8db86f3600e",
    "cycle-wrap-13-4-1": "e69d1e5d5998eb591fa04e099147236758d8121c5ab2b679c1895255c0b83f4b",
    "figure-eight": "44139f672b36e24b3a5a6e646b42f6e6e7bf5a8ca1e2380673f47a5cd67fc2a4",
    "random-0": "2521f6131cab53b7f8d8a8e73d4ab6a63f17a856985e47513c6cf5ceca992046",
    "random-1": "cd4c5b4ddf2b17a851affe7153d98f3fc7b45d408726bf5495f18ab86311aff8",
    "random-2": "807973c98d78f0a0acfebba8260a9a6fd72d13f3e419d2e3b2a8b6776cc94ee5",
    "random-3": "9fa0ac141344c9880c9bb1314c6bf57f513f6e7adb5850a0b18718f40351eebb",
    "random-4": "2b6c9525ec60a4176a6a341f97edb3cf4012634407f2fe1281ff93fd31abff0d",
    "random-5": "cd7e85febf05ef7f0c75d885455a933d5802661f14d5c4f745dc573b652f8485",
    "random-6": "ff32a77d469398315e43483d63f4595226a0abd3e49895a80871fb0c5069bb1a",
    "random-7": "62e94c52e2bd3944a9d18df6edf761eae6b086ba9183ed80430af1f5a0d21d2f",
    "random-8": "62e94c52e2bd3944a9d18df6edf761eae6b086ba9183ed80430af1f5a0d21d2f",
    "random-9": "1886f346e740e9511b0a9586eb5eee5a813f65fbb279efdf97aedc32d653136b",
    "random-10": "c0e0acd7ec2b2de6c5a281bccd80448ae7344fb8b49bb44a848ec0abf87e70cf",
    "random-11": "13423db68c3970970843c4fcbeab96a6dd9327c8f82a03049fc588c07cb5d54f",
    "random-12": "62e94c52e2bd3944a9d18df6edf761eae6b086ba9183ed80430af1f5a0d21d2f",
    "random-13": "f2e583ab20daf77487f35dbfa3a85f324a92d770027e51aab19c00f9ab9387f9",
    "random-14": "9a9f1154f77046bb40e8b4b042375fa081769965a044147a027cca54e7b51b3c",
    "random-15": "9bc8981c1545455443fb9386f1018d8e6305be3e144fb9abdb838e5a119c2253",
    "random-16": "3411b5f42bccb86d868dd0968001819abf4ec4f98b502df84b534481a3b160ba",
    "random-17": "bf815d4a0c1de443c3ba8d22d9b482d445e9a30530cc3d0e607be40eb126b48a",
    "random-18": "3411b5f42bccb86d868dd0968001819abf4ec4f98b502df84b534481a3b160ba",
    "random-19": "c57df59b90e62f2259f9b8255556e571060e3d75e2ea0ec1368c8a49a6f1146f",
    "random-20": "807973c98d78f0a0acfebba8260a9a6fd72d13f3e419d2e3b2a8b6776cc94ee5",
    "random-21": "8d06a526d125356e3d17f2074068379d9bf49260cb339501f4bfeb57b1ba1580",
    "random-22": "23a0c488431697f91ed509dd09e0d40191bddb29d45ffdcb7b90c3ce303e8ff9",
    "random-23": "db9d6b19cf1b5993fa0915017449a99ccc29c8c3539907df33710c68a89c185d",
    "random-24": "eaa13da479fda0a9cc2874029497367d08506eadd3b4b1ca44d82c6ed2e1542d",
    "random-25": "9a9f1154f77046bb40e8b4b042375fa081769965a044147a027cca54e7b51b3c",
    "random-26": "dde7b25ff2bf48743651d6e3edcc60ff3e912b937ab4a7d859f2811b1dd6da25",
    "random-27": "fc3c7721be45d5668d4ce54da2a39d5d11c494cfd2bb58baa2822589c3608bb0",
    "random-28": "f2e583ab20daf77487f35dbfa3a85f324a92d770027e51aab19c00f9ab9387f9",
    "random-29": "9a08683c8a08382ccfe5c55cf53b25e16122c3376adc3ae37450141081cde747",
    "random-30": "ef84e99e6f9101b2b8b84d58a844e223812c0ee5ec2214384ce55360d0bddcf7",
    "random-31": "2b6c9525ec60a4176a6a341f97edb3cf4012634407f2fe1281ff93fd31abff0d",
    "random-32": "b47c4cd835a4a83ca00af9a948337aa397c8e08e38d5bdd886232097f77381e8",
    "random-33": "a29020ab05ede831c68a9e7516badd41f309a22476fa478798b399312b5db0fc",
    "random-34": "3ceb6f16ebbe25c9307e7022b2f574de3353e72477c2c6e52414edc118595f69",
    "random-35": "62e94c52e2bd3944a9d18df6edf761eae6b086ba9183ed80430af1f5a0d21d2f",
    "random-36": "2b6c9525ec60a4176a6a341f97edb3cf4012634407f2fe1281ff93fd31abff0d",
    "random-37": "eee302a8d842a10bc31e2724fa9a0c7727e531250a60f1169984b29712604ec3",
    "random-38": "f679b8e6e7690b8d4ac8d683b580526dcf3ef4f5e0d0b8bffd0c6711c99e5a5c",
    "random-39": "3411b5f42bccb86d868dd0968001819abf4ec4f98b502df84b534481a3b160ba",
    "random-40": "2fbf495ed130843697d54d4d925a0a70ba59ebbfac0812d5b443ad0a09162169",
    "random-41": "2b6c9525ec60a4176a6a341f97edb3cf4012634407f2fe1281ff93fd31abff0d",
    "random-42": "b720ddd6d5b58d2fc9327f13e11ee9c8d8232b5e5399a05179ec0adfcfab4eb3",
    "random-43": "2b6c9525ec60a4176a6a341f97edb3cf4012634407f2fe1281ff93fd31abff0d",
    "random-44": "b47c4cd835a4a83ca00af9a948337aa397c8e08e38d5bdd886232097f77381e8",
    "random-45": "3411b5f42bccb86d868dd0968001819abf4ec4f98b502df84b534481a3b160ba",
    "random-46": "51cb755025ec34aca7740cf051e748f1e6d97571e3204c803f3e2abd4e9ac7f5",
    "random-47": "8d06a526d125356e3d17f2074068379d9bf49260cb339501f4bfeb57b1ba1580",
    "random-48": "252bad83869c3553817e02634a723a18c8da1298adf6ef42f3916bf6862dd81a",
    "random-49": "acd67a78462d19b7c025b62052ee754beec07f48309a277a43424f0788152116",
    "make_figure_eight": "44139f672b36e24b3a5a6e646b42f6e6e7bf5a8ca1e2380673f47a5cd67fc2a4",
    "make_double_bridge": "50c7243dee702d37e381d90bd0c200dc3c9e1dc55fa7b3c200fc455c553429aa",
    "make_locked_link": "0376ec36183d20f3b8598129ca534fa30702aeef5357ddd82b063aac56013e8c",
    "make_twisted_loop": "9ff75aea81a0c71df4c4570b1c0189fb66d050ce62908fb2a221643353653a99",
    "make_double_turn": "e1a340cfe37c912a05e9cd3aad0d3ce50ee04124af4a2e6ae229a71b7c42121b",
    "girth5-0": "5a8b090b64f4861bca0d9949e2762f5889fe65125ddae8a0f9e9d745c964c28f",
    "girth5-1": "3411b5f42bccb86d868dd0968001819abf4ec4f98b502df84b534481a3b160ba",
    "girth5-2": "16931c841bba423399bd7c7d1720f3923762498c7aeb8b32431a30420ec34627",
    "girth5-3": "5e450d4753158bd0a7a531ffa14d4bc26b63d47f6692306a7749f65e7adbb9a1",
    "girth5-4": "82a2d719890a45819ffceb49e5eadbb7a8f0ab2a86fdd27a3d073e3ccdf41593",
    "girth5-5": "bff5d5396a9d98b982be31a370c8396b1cc15a9dc5142f73bf78dd49ee62dcd8",
    "girth5-6": "0e2d9afee61f30a7c5bf256b51be7f7b22f4f12977c22a2de349d753d6456f98",
    "girth5-7": "d5a2077c8673bc69b1d3308f03f96b29fffa8a98133a891f7f66ec13f99ef69b",
    "girth5-8": "3411b5f42bccb86d868dd0968001819abf4ec4f98b502df84b534481a3b160ba",
    "girth5-9": "9aa8b9527fb5783017ecd25b06a70649dfad1d978059dc1112b9e9fc0fbb9614",
    "girth5-10": "9a98282cf33d92bdbc972436d385216246f1325836904ec8bead659bfb815777",
    "girth5-11": "0b0d795fd48cf969b616943893ea1d3d0892f373622a0be584b14a82796005c4",
    "girth5-12": "43b5fc89c986067974cdfba0d4e639f873d2ca929ad332d9a48cfcd246982bf4",
    "girth5-13": "6196c3ee69a04f8dc620ae4ac9a1faeb24accded2d27a824b68195def4cf854e",
    "girth5-14": "faf05d5b5a7b78a9a9e8e90d212758a05f46356c35066c1e248b47d5f3f29cea",
    "girth5-15": "784c74b096f95b6fd54c2f755a873a0d2e6d008936691be01c4d783e08f6b8a0",
    "girth5-16": "938f83035b693b6d7c80226e45491c810d79c15953c9c6558acb63bf72db6de7",
    "girth5-17": "36f274475dcd130d7bbac2678d4bb0ff999918d0d0df31517448f66d55e034f9",
    "girth5-18": "6e3cfaf9488af2078f1ec06510df8fea0f67d240da4e7a2ed5a81e96cf5f9a28",
    "girth5-19": "4e82a2167d8fd33d8192be9d516d0f27eb42ad560405ed01fe3eb3035002b4f0",
    "union-interleaved": "12f74f5ee42a0b8439544f9574182c897c4e994ca39a576a996609b80c9660b3",
    "union-then-locked-link": "5baa70d1b4a9778ba37412a9d6bce60cc2e9cb57183d994899d25ffbe24c3b5e",
}


def _solve_digest(tmp_path, capsys, instance_text):
    path = tmp_path / "inst.json"
    path.write_text(instance_text, encoding="utf-8")
    assert run(["solve", str(path)]) in (0, 1)
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GEN))
def test_gen_solve_output_pinned(name, tmp_path, capsys):
    assert run(["gen", *GEN[name]]) == 0
    text = capsys.readouterr().out
    assert _solve_digest(tmp_path, capsys, text) == DIGESTS[name]


@pytest.mark.parametrize("name", CONSTRUCTED)
def test_constructed_solve_output_pinned(name, tmp_path, capsys):
    text = dumps(instance_to_dict(getattr(families, "make_" + name)()))
    assert _solve_digest(tmp_path, capsys, text) == DIGESTS["make_" + name]


@pytest.mark.parametrize("seed", GIRTH5_SEEDS)
def test_girth5_solve_output_pinned(seed, tmp_path, capsys):
    inst = families.random_girth5_instance(random.Random(seed), 4 + seed % 7)
    text = dumps(instance_to_dict(inst))
    assert _solve_digest(tmp_path, capsys, text) == DIGESTS[f"girth5-{seed}"]


def disjoint_union(parts: list[Instance], interleave: bool) -> Instance:
    """The instances side by side on the disjoint union of their hosts.

    With interleave, vertex ids are dealt round robin (vertex i of every part
    before vertex i + 1 of any), so the components' vertex sets interleave;
    otherwise each part's ids follow the previous part's.
    """
    ids: list[list[int]] = [[0] * p.g.n for p in parts]
    n = 0
    if interleave:
        for i in range(max(p.g.n for p in parts)):
            for k, p in enumerate(parts):
                if i < p.g.n:
                    ids[k][i], n = n, n + 1
    else:
        for k, p in enumerate(parts):
            ids[k], n = list(range(n, n + p.g.n)), n + p.g.n
    g_edges, h_edges, phi, psi, offset = [], [], [0] * n, [0] * n, 0
    for k, p in enumerate(parts):
        m = ids[k]
        g_edges += [(m[u], m[v]) for u, v in p.g.edge_list()]
        h_edges += [(offset + a, offset + b) for a, b in p.h.edge_list()]
        for i in range(p.g.n):
            phi[m[i]], psi[m[i]] = offset + p.phi[i], offset + p.psi[i]
        offset += p.h.n
    return Instance(
        g=Graph(n, g_edges), h=Graph(offset, h_edges), phi=tuple(phi), psi=tuple(psi), mode=REFLEXIVE
    )


def _union(name: str) -> Instance:
    # a cycle wrap, the double turn (second-witness candidates) and a YES
    # random instance; then the same union with the locked link appended, whose
    # constant-walk retry runs after the three YES components
    union = disjoint_union(
        [
            families.make_cycle_wrap(30, 4, 5),
            families.make_double_turn(),
            families.random_instance(random.Random(15), 12, 6),
        ],
        interleave=True,
    )
    if name == "union-interleaved":
        return union
    return disjoint_union([union, families.make_locked_link()], interleave=False)


@pytest.mark.parametrize("name", UNIONS)
def test_union_solve_output_pinned(name, tmp_path, capsys):
    text = dumps(instance_to_dict(_union(name)))
    assert _solve_digest(tmp_path, capsys, text) == DIGESTS[name]
