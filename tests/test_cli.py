import argparse
import ast
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import platform
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import depthpad
from depthpad import cli, depthlabel, metrics, model, supervision
from depthpad.cli import (
    COMMAND_FIELDS,
    CONFIG_FIELDS,
    MAX_CONFIG_BYTES,
    MAX_FRAMES,
    UsageError,
    main,
    parse_config_file,
    svg_line_plot,
)
from depthpad.geometry import read_sweep_csv

from conftest import clear_caches, record_counts, run_fresh
from test_metrics import write_records


REFERENCE_DIR = Path(__file__).resolve().parents[1] / "bench" / "reference"

# sha256 of the simulate outputs by frame count: the default 5 frames and the
# 64-frame cap (63 drift steps of the rotated carrier). Both files come from
# pure-Python float arithmetic and repr, so they hold bit for bit on any
# platform.
SIMULATE_SHA256 = {
    5: {
        "simulation.csv":
            "c104d78bfdf8573774b357e8f733c465aaf7d3ca96a5e16afc0ad1634ab66770",
        "simulation.svg":
            "c070c0b90c78c0a36cdb1fac92471fd4cb10e88426ad66118acb77e3d8032e16",
    },
    MAX_FRAMES: {
        "simulation.csv":
            "0fa2112a3c611e93c78952f9996459fe9d3a511597596f565f6e9621c3e90f33",
        "simulation.svg":
            "3c1c8018620216da1f105311def973c10f5eb5cb6b7761631326dfa9090fb70d",
    },
}

# A sweep whose files hold both 0.0 and -0.0: with d1 = 0 every ratio is a
# zero, signed by the shake of its step. 0.0 == -0.0, so a writer that
# formats a value once and keys it by value would write the wrong sign.
SIGNED_ZERO_CONFIG = ("scenes = real,replay\nd1 = 0.0\ndx = 0.1\nza = 2\n"
                      "zb = 4\nd2 = 1\ndv_schedule = -0.04,0.05,-0.04\n")
SIGNED_ZERO_FRAMES = 9
SIGNED_ZERO_SHA256 = {
    "simulation.csv":
        "f90fa799302fbb5b81bcd22d341b6fc70ec376830392765c694c2aae202b3624",
    "simulation.svg":
        "7ea9efa5fb6473aeca6a80b77453d56e29d029594e8c7d01b906180eb95166a7",
}


# sha256 of the oracle-mode demo.json for seeds 0-19 at 2, 5 and 9 frames.
# Oracle mode draws no weights and makes no conv call, so the seed changes
# only the echoed "seed" field; the table pins every other byte as well.
DEMO_ORACLE_SHA256 = {
    2: (
        "99288f621350f52277536139392fed8123de0494f2ae9f543457406c8645fee2",
        "fdf44063fe98045bf5d4b67e5beccb6482849f8303e4f23f193493811902872d",
        "64d41b5abc244dd54d6942f0db555ae063a9b2b9d17d9fa062c086af8e4d5203",
        "d9f6702d0a4b1859c804bbdff489b8e42cb3bedf6a34055296445b1d1275da0b",
        "ef70ee29dfdf0b2953b10485567234f2c2bdf8162cc8a3443378b73a55a1ebbe",
        "a5e56dfefab46ffdc4f0d648915096b3a51c1a41dc954b78148644630424827b",
        "96cfb544e424e086ad380af6d653449c0b47a2007fa5c86d9c8db2bf564ba9d6",
        "a9e6a5bcf8f1bc89073396b475c35fb19ab8eaa6781881121eb3178f61b4ac1d",
        "0b86fc1a755184641dbb9277bab503a76f310c504a2e67ae35f8c64b6b29763a",
        "a5b8783d29def3e482b4f744bf77a8b0c37141a7bf7f822ca2e3fe3016f3c59a",
        "9e03f79e45e188421005c7c8c32aa582d9d8378796d15a7ac624d36b5ccaf069",
        "a543d6b008459791ddc8823b7e21c9ffc9e520ec770eb313c0ac79301872922c",
        "6e73b188087038a754b3b9cfb69e5d2809b9489b0d53a2ab80704f0419762b15",
        "df3379af2a832ab2039aac244a53762a89e242ff1da8879cae2b4be3d9c1e8d4",
        "156e1e950daa03bace30cf469e986d4d3725bf33a53f52c695b2b63a37bed582",
        "e743998cbc8d4a678114e21128edcac750090aef5af7c949ddb13e6fb527707a",
        "a8d04a8d9410c75637a6a1cdc00fdbaaf82d404bb6b9d0436aea602a99e9af8e",
        "e0728e3c2a14b582a576db5817e4876f3132b0f466e4fdf55d3bb08d966bb797",
        "ea6266d79e5672101dc31a745efda2e12a7fa4d9759ec39e34e726a2b58e3df7",
        "69cf8f35accd66e1c32df53397f4f6589a0b3a5004c5bdc6505e8aca3fd337b1",
    ),
    5: (
        "7fd0790b85167c51208e831879f17d8156b96c292ecc6c1d8c051e0ea9754f41",
        "c291afa60128fe44fc4c6e0eca975856038293af712857adcba4967d6212f699",
        "ddee068814654ca3b87ce9e2901ee62dbb8a1efb4291ff3b2c2ef0ac67f813e1",
        "64754e9a36e3e10b1ba2b971a03efdf0d2e158554a58188dcff0ea4d2d8df710",
        "4a675ba56770890080f9327b939e53d9241861c4e9b276963de76db489990079",
        "f8f6d7e2632d7c3aea53366a83e165723212e564d6fa3093eaa01fc236484cca",
        "38de91ccaed0a60f573a46065e09e94ed4cafee85167b077ec2e48371b3b9b8b",
        "8020e0c23fea2235f2c61d2e361daf1382d42ebd5dfe986f2b33b0b80ecae9f5",
        "93a511c916f830339d5db881040b73ee640bf3c72cd1aba033e05a5b0b38638e",
        "0c731217784c7d3dff940a3c50b3c9ddf9792409c4d57c26c8b7f36e3ff2a41d",
        "bc5d773ae62e8d7964d1bc8a711badb7cfa0fe79fb91a2b97d74b8deeec89c73",
        "3082d43aa30df55114412dd0cfdfd134f6d828d28ef58a26a94b817fe5377466",
        "726bd3575703ee6cc62899c0d2a17f9737942afab8b4f32af519f2ba598e07d7",
        "a25fef3db10bd4675f3eced1fae1d7e13ed41141a795f0ae6939b4ea55865c61",
        "e782d3b884d06c6d518f81b1c46c3210f9c80b97bab24229b79b50229564035b",
        "b1503a5a412e20190a838eb53ec493ea999e883c61c0043b9f23d085da11780f",
        "1ae5c2bb467a1f3e022e2235694c577d592dac24041a54ea62c24d31265fd5b8",
        "84d25d5d501a3834853116c1bbd641bccc2a8a8bc00613fc6f557051f30dc463",
        "1b2698a06afe88d6d238fa57e6842402156f4af02fd53c983145dd6e0fecd354",
        "b0106807dc10501e19a2ff92c12cda2485181e0a9ab1a7c44fb221111a9d77c0",
    ),
    9: (
        "daf01b64583d4538e8c81c7ada95d46dd5af55eaf4eb106aedfaf5b9de581a23",
        "2f761a851816fd378b8937637219d47fcc766344b16eaf2c962cda2c464646d8",
        "d82943300dda151af6d769235a0441e0625f50f94a1fe1727426ac7635a5da3c",
        "972003f30db9ab4717a27ecb1aea5448905ac3cfebb86a36dae5cfd197a0f252",
        "2f3fda699714b6565c32ea50b5f2da1a4f69fe4e4b5066b8e424ef3eea78ef12",
        "7f19f24469cadf09a73bb78134ad7c1afa55469c93b452b6cd0fbaaac7eead6d",
        "95b97556d1723581a6070e356311fa9620b3b79acaf81eef50545ba6bab8a245",
        "c9635f5dfe0888f5b1ec788fe02bb1e07dbb52c5585c196a3764be63ef496709",
        "a96b5f32a666dda238f8fc4aae1c0efe85062f566157e2bc44eb267a2d98162f",
        "9e81f3dfa300e51f0484296a2e8084e91534f59c7fc1ffafa0f0df3bab43a948",
        "cf9a4871c4b22e01daef369d1a61807cb34a993e3fc370861812e67f1d91f23a",
        "863ac9b89afecf2623f891e5d50bc7a680bac2544e80c23f36e4a9d74b01ce2a",
        "03b2dbac0ccd10b57fc87d9581a5e44a68cc47ba7680db36e22d7e23ff71a666",
        "95e6a7f80174479ab195d51535999020874863916e7b8bb222afad75f79bb403",
        "b359d5622afabaeb434d907f6e2cecb802406e8400f5c48a9f7c48c3238cc360",
        "f79a43b55ebc3a09399d3acc1df6f7dd7e6742bae0e5392b6cc0be1a6b8cc36c",
        "0f700044141857264cb57c70627230690211d1cebe8f0637223859e20144f3d9",
        "0c7605e4e711271890e6a271149c0ee414c6c04d880fbd010c680e80b7f53b7b",
        "b21aa3160de1bf86771ac23187ee7d54f0ccf4afe9f56c5070507a5507778117",
        "280f4062308ca5056e755f00a97db594bc754472bf778ba80119ffcdaa141345",
    ),
}


# sha256 of the full-mode demo.json for seeds 0-19 at 2, 5 and 9 frames and
# seeds 0-2 at the 64-frame cap. Full mode draws the motion, GRU and head
# weights from the seed, so the table pins each draw's order, dtype and
# scaling. The bytes do not change between one BLAS thread and the default
# thread count.
DEMO_FULL_SHA256 = {
    2: (
        "f936ac8169748ff92032558c8f2846ff62021867d7753d53a7226543ddca2d07",
        "a98327e64bb14ae7d18ddc1bc8a317e4529890c5395665f70b21541b14c05a3a",
        "007597ee7d7d3b78da7a2472e6117e34a12dc79a06e6a6d634f70b58fad22a0b",
        "919298db2d6fe32e20f4ba7d622cc281e3cf903d9ed981e9ee416a033ffa2e65",
        "c1f195e8355f2e237e3f2e253929527b060b57e858d3ebddae8effc7b728671b",
        "2c68b218528c4a7a5282f74ccc16026b8947923e74aa472a579035fc99864052",
        "2c6faa77725cc77b78d379b69697d14701540b74a0428ae50482e9346b037bb8",
        "265b581390dd4f3503bc642afcc3d53414f239a93ca51cdaa4528b2d30336b27",
        "52d9b4fca638973370eeca85792fd5d4bc7e946c7d7786c285e0cc3d7598a74a",
        "78dd5ef88448d0d0439763629a8e1b21ae6cc989e0c4f1acedcccd943b586a33",
        "1919677d049c94f4fb6626000d83878efe2fbee435eaed9acd1c55a462db877c",
        "fbe261d9d05e4445ea4990366383441b177dfa89114785d405da5e9d2d01213a",
        "9c2ffcf561675877d7af7047d4e85e4f31f86af2fff83e565f8fea27c7d22d51",
        "0ea4db42c9d30f8a27b553d5422f130ee5c210dd5136c1fa24a0b8d318318aee",
        "05071afa03526adec922093536c2820bb7088cab39e7dfcbb897371b1b5db1be",
        "6aa77c70557a5220711c652c981f4d4f914023785e04007813c8ef4f0d969213",
        "2012ed1036efb64f2a97a8118cd54a58b9915c1a4f03266d8e5b16760b9fd946",
        "d156b9ada8f37925cf37beda4f6e0e7258407c1326b619765dafbe874bce1edf",
        "3bdb510f6b148bed96f66c47e18adb01cfdf7d72037be72ae403b991070976cf",
        "3eb3308dc479ef088f7c6d91e32dc82c93a0da8d1b8348faf1af1225c67968af",
    ),
    5: (
        "bda5993df18d2b592480e5273ad34bfe878c70819909cb83b7df5834761aaa2a",
        "18632eaf997fee92430db3851cbf88e55378446fc83fd99c67186813a769f133",
        "a0d7aa1fcda0efbbd3bbb8583e1f52bca5108a6e9106618d07938ae1008b8124",
        "1275512180a0fa1719b51f7939c3316827a5970f1fa4134821e0702fc6dd21d0",
        "2fe999f611f2ef50be23405494962a345e2c6aa21e5ba41f7a11c5bbac867d06",
        "2f428a9a3f523d6e31b631b85c9180b6a5fb2616899eec2e957183a4b4b95cbe",
        "a131478f656765bf0701a30eb1fadae4c3bdc32d401a4b97650fef64a100a40a",
        "b24f9bf9f1ca54453eb22d89abf83cc77fd3508577b5e79352f3cbca14b1527e",
        "1dd9479291822ed1bb46a057875521607d7811b27f1a5e28f2444e0fed1679cd",
        "6cbcb7de5a8eb71323fe7a2fb04bf0b3a403d24b9e58875bbf1396547cf84eec",
        "1c40ccd8cca90728f66f4a7782201e9683863f98ed28a9a921d76ad7a5ac5311",
        "6baf4a01c1752dff55c051eb9d1a3e1744b42f108d3af6e0b4d049437c7f7137",
        "5ee33ba055e5c78accbccdae10ae4b998d6fc559d41f27a90316d79985675824",
        "96777339ae68627b2629886559a034ce78b19405a9ab09b2dff98d38aaf949b8",
        "3de4b2a0a59e9deca0902eb94d8def072f423ae13bf62cff3972691821711b3f",
        "12383fa4b1ea66afb10e7a104010e054940333018e7e8ccb71d9362da19bcffe",
        "068ccaeaad8a81debe4adf72597c9504aed9bafee9d484bab6d4e0ef21f7797c",
        "68606ed609984c2ea2286b7a61c2791a680c58b862519b6f4a8368ab6dfa6259",
        "6e442aff8f9389379e14a417d21a943141fe1672089fa1ef9231abe1a2480098",
        "af1fbf8b46d095e016d6d066404eca685129a3ec38305de5c3a78fd965781469",
    ),
    9: (
        "f536f3caaf5d7d176e75b30665f31bbdeeee8172318c36eaf422fdc3094bd25a",
        "5a68dca667250d85e98070cdfad32d760ff695fd0c637a7adfce9213b386153f",
        "1ad47e9e7d89b814c5469fe1a170f69374ac80f31bb61aa68e42655ea697fb7d",
        "4468073806d9ce33844c353b68597ca15995ffad328c4d6fd150874694d2f57e",
        "4d5be18dd74ec6c44909cf24242f761937d51a3c057632ca9216e22a8919567b",
        "fa0fdf84393bf17899c8b7b98e146112b70e27fc76669ff48495fbc190e70dd5",
        "e519c9ff9b70f128c359be1d69b9e33204ea4faaca8b87cbe4174854d5d22b3b",
        "4af6b23ed998164d6058a76b1e4fafb0ba99bad8c8860916bef48426305efdb6",
        "37e36812fd035ddbc8cb38fcd2046cde9b689461eec63efd34089957aa57dc67",
        "15e977c6952ce28248e07fd2d41a3730f9baa5e7b3d149aac3a044566f0c521f",
        "887b2cd2622ddd55d4730bffb88afce965c2db43a9378920747c0263558a0641",
        "da727addfe42678debfa37dce60f1b1088ddeaceb190afe2f141ba10cf5704b6",
        "ffebcc09f4760ff08e67ce1baa710a9542f26e7fce3d401fc7089a48c017353a",
        "950ea1e21bf2410c27160ffa5e69ea4d0a1e257aa855fdfcf7176d9afcaa8367",
        "1d7ace78e1f6ecf087ddaabf3aa089d476912077ecbe734696e16375978a0a74",
        "881fe603df6b2b9b2e6768be9606e374226e9131d60fed9931022ddb550cc5ff",
        "8cbbce22265808cbf403b22f2d69983d8f9ca376e98a18e92704502a5ad3b0f7",
        "312dd241fae8f59135bb4757ef20eae4766f08ac2dd477b46a7f7197dccc2bec",
        "10ada466bcf39b1427d2375c5ec9e0153a3f9d5e24ad234bf121d53aa0f7c881",
        "08979e6d502155c243f92724c425ddb48c4b8aab4601e59a288b34505e76c9a4",
    ),
    64: (
        "fe7fe8ee01df8512c7a152647d97ec3ccc1aefb29a7493f644064122b58ffe73",
        "330c6f265b0d5148619b075e9aadab5a627540caacb7ed0c586bb0fefbaa2354",
        "16d1baecda454d29ce9539471e19b2ba88aa3ac38aef68d517dc0379ff32bfac",
    ),
}

# (score, b_hat, absolute, contrastive, depth_total, binary, multi_total) of
# each kind in a few full-mode runs, by (seed, frames): where a BLAS that
# rounds otherwise fails DEMO_FULL_SHA256, this table shows by how much.
DEMO_FULL_VALUES = {
    (0, 2): {
        "living": (0.5031772989043012, 0.5111586242569836,
                   120.11680319960183, 104.19037491680649, 224.30717811640832,
                   0.6710753176589359, 23.034685597533873),
        "spoof": (0.5180698041720241, 0.5271955189999561,
                  198.24751110824627, 115.0757553596909, 313.3232664679372,
                  0.7490733353546956, 32.006492648612934),
    },
    (3, 9): {
        "living": (0.47736332027787626, 0.5012989919368406,
                   1962.3918177145301, 1000.7760347274269, 2963.167852441957,
                   0.6905525656126853, 296.93828255324706),
        "spoof": (0.43172791878503103, 0.4492638943602466,
                  710.3188131683445, 408.8455877716317, 1119.164400939976,
                  0.5964995216891777, 112.45328966351784),
    },
    (1, 64): {
        "living": (0.5309970209091269, 0.5332753424064257,
                   6597.578046655635, 7707.854333117036, 14305.432379772672,
                   0.6287173983221858, 1431.1090836357569),
        "spoof": (0.5096219302053437, 0.5129470973926625,
                  15082.572692758391, 6295.9239026207315, 21378.49659537912,
                  0.7193825322154581, 2138.4971038169056),
    },
}


def run(argv):
    return main([str(a) for a in argv])


def assert_matches_reference(got, ref, where="demo.json"):
    """Same keys, lengths and types as ref; floats equal to rel 1e-12."""
    assert type(got) is type(ref), f"{where}: {got!r} vs reference {ref!r}"
    if isinstance(ref, dict):
        assert list(got) == list(ref), f"{where}: keys differ"
        for key in ref:
            assert_matches_reference(got[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list):
        assert len(got) == len(ref), f"{where}: lengths differ"
        for i, (g, r) in enumerate(zip(got, ref)):
            assert_matches_reference(g, r, f"{where}[{i}]")
    elif isinstance(ref, float):
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0), where
    else:
        assert got == ref, where


class TestSimulate:
    def test_sweep_outputs(self, tmp_path):
        assert run(["simulate", "--out", tmp_path, "--frames", 5]) == 0
        rows = read_sweep_csv(tmp_path / "simulation.csv")
        by_scene = {}
        for row in rows:
            by_scene.setdefault(row["scene_type"], []).append(row)
        assert set(by_scene) == {"real", "print", "replay", "rotated"}
        assert all(len(v) == 4 for v in by_scene.values())

        real_ratios = [r["ratio"] for r in by_scene["real"]]
        assert all(r == pytest.approx(0.4, rel=1e-9) for r in real_ratios)
        assert all(r["closed_form_ratio"] == pytest.approx(0.4)
                   for r in by_scene["real"])

        assert all(r["degenerate_flat"] for r in by_scene["print"])
        assert all(r["ratio"] is None for r in by_scene["print"])

        replay_ratios = [r["ratio"] for r in by_scene["replay"]]
        assert np.var(replay_ratios) > 0
        for row in by_scene["replay"]:
            assert row["ratio"] == pytest.approx(row["closed_form_ratio"],
                                                 rel=1e-9)

        svg = (tmp_path / "simulation.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert "flat" in svg  # the print series is annotated, not plotted

    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--out", a]) == 0
        assert run(["simulate", "--out", b]) == 0
        assert (a / "simulation.csv").read_bytes() == (b / "simulation.csv").read_bytes()
        assert (a / "simulation.svg").read_bytes() == (b / "simulation.svg").read_bytes()

    @staticmethod
    def assert_golden_bytes(out, frames):
        for name, digest in SIMULATE_SHA256[frames].items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, (frames, name)

    def test_default_outputs_match_golden_bytes(self, tmp_path):
        assert run(["simulate", "--out", tmp_path]) == 0
        self.assert_golden_bytes(tmp_path, 5)

    def test_frame_cap_outputs_match_golden_bytes(self, tmp_path):
        assert run(["simulate", "--out", tmp_path, "--frames", MAX_FRAMES]) == 0
        self.assert_golden_bytes(tmp_path, MAX_FRAMES)

    def test_signed_zero_outputs_match_golden_bytes(self, tmp_path):
        cfg = tmp_path / "signed_zero.cfg"
        cfg.write_text(SIGNED_ZERO_CONFIG)
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", out,
                    "--frames", SIGNED_ZERO_FRAMES]) == 0
        text = (out / "simulation.csv").read_text()
        assert ",0.0," in text and ",-0.0," in text
        for name, digest in SIGNED_ZERO_SHA256.items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_seed_flag_is_demo_only(self, tmp_path):
        # simulate and metrics draw nothing at random, so they take no seed.
        for command in (["simulate"], ["metrics", tmp_path / "records.csv"]):
            with pytest.raises(SystemExit) as exc_info:
                run([*command, "--seed", 3, "--out", tmp_path])
            assert exc_info.value.code == 2
        assert not (tmp_path / "simulation.csv").exists()

    def test_too_few_frames_is_usage_error(self, tmp_path):
        assert run(["simulate", "--out", tmp_path, "--frames", 0]) == 2
        assert run(["simulate", "--out", tmp_path, "--frames", 1]) == 2

    def test_config_file_and_precedence(self, tmp_path):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(
            "# sweep settings\n"
            "d1 = 0.2\n"
            "d2 = 0.8\n"
            "frames = 4\n"
            "scenes = real,replay\n"
            "dv_schedule = 0.02,0.08\n")
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", out,
                    "--frames", 6]) == 0  # CLI --frames beats the file
        rows = read_sweep_csv(out / "simulation.csv")
        assert {r["scene_type"] for r in rows} == {"real", "replay"}
        real_rows = [r for r in rows if r["scene_type"] == "real"]
        assert len(real_rows) == 5
        assert real_rows[0]["ratio"] == pytest.approx(0.25, rel=1e-9)

    def test_malformed_config_lines(self, tmp_path):
        bad_field = tmp_path / "bad1.cfg"
        bad_field.write_text("nonsense = 3\n")
        assert run(["simulate", "--config", bad_field, "--out", tmp_path]) == 2
        bad_syntax = tmp_path / "bad2.cfg"
        bad_syntax.write_text("d1 0.3\n")
        assert run(["simulate", "--config", bad_syntax, "--out", tmp_path]) == 2
        bad_value = tmp_path / "bad3.cfg"
        bad_value.write_text("d1 = much\n")
        assert run(["simulate", "--config", bad_value, "--out", tmp_path]) == 2
        with pytest.raises(Exception):
            parse_config_file(bad_field, "simulate")

    def test_empty_dv_schedule_is_usage_error(self, tmp_path):
        for text in ("dv_schedule =\n", "dv_schedule = , ,\n"):
            cfg = tmp_path / "empty.cfg"
            cfg.write_text("scenes = print\n" + text)
            with pytest.raises(UsageError, match="dv_schedule"):
                parse_config_file(cfg, "simulate")
            assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2
        assert not (tmp_path / "simulation.csv").exists()

    def test_empty_scenes_is_usage_error(self, tmp_path):
        for text in ("scenes =\n", "scenes = , ,\n"):
            cfg = tmp_path / "empty.cfg"
            cfg.write_text(text)
            with pytest.raises(UsageError, match="scenes"):
                parse_config_file(cfg, "simulate")
            assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2
        assert not (tmp_path / "simulation.csv").exists()

    def test_unknown_scene_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenes.cfg"
        cfg.write_text("# sweep\nscenes = real,mirror\n")
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2:" in err and "'mirror'" in err
        assert not (tmp_path / "simulation.csv").exists()

    def test_repeated_scene_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenes.cfg"
        cfg.write_text("frames = 3\nscenes = real,real,print\n")
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {cfg}:2: bad value for 'scenes'")
        assert "scene 'real' is listed twice" in err
        assert not out.exists()

    def test_dv_field_is_gone(self, tmp_path, capsys):
        # Per-step shake comes only from dv_schedule.
        cfg = tmp_path / "dv.cfg"
        cfg.write_text("dv = 0.1\n")
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2
        assert "unknown field 'dv'" in capsys.readouterr().err
        assert not (tmp_path / "simulation.csv").exists()

    @pytest.mark.parametrize("text, scene, rule", [
        ("f = -1\n", "real", "focal distance must be positive, got -1.0"),
        ("theta = 2\n", "rotated", "theta must lie in (-pi/2, pi/2), got 2.0"),
        ("d1 = 2\nd2 = 1\n", "real", "need 0 <= d1 <= d2, got d1=2.0, d2=1.0"),
        ("f = nan\n", "real", "f must be finite, got nan"),
        ("ul1 = nan\n", "rotated", "ul1 must be finite, got nan"),
        ("um1 = inf\n", "rotated", "um1 must be finite, got inf"),
        ("ur1 = -inf\n", "rotated", "ur1 must be finite, got -inf"),
    ])
    def test_bad_scene_setting_is_usage_error(self, tmp_path, capsys, text,
                                              scene, rule):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"usage error: bad setting for scene {scene!r}: {rule}" in err
        assert not out.exists()

    def test_unrotated_carrier_is_a_still_replay(self, tmp_path):
        # At theta = 0 the start coordinates are checked but never stepped:
        # the carrier replays its content without shake.
        cfg = tmp_path / "flat.cfg"
        cfg.write_text("scenes = rotated\ntheta = 0\n")
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        digest = hashlib.sha256((out / "simulation.csv").read_bytes()).hexdigest()
        assert digest == ("928285fb1fbc4f20b228a08b55ee4464"
                          "cd8533c5d60a48f9fac99d2d66f1aa9c")

    def test_unusable_scene_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "still.cfg"
        # A print carrier that never moves produces no observable flow.
        cfg.write_text("scenes = print\ndv_schedule = 0.0\n")
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", out]) == 3
        assert capsys.readouterr().err.startswith("data error:")
        assert not out.exists()

    def test_overflowing_closed_form_is_data_error(self, tmp_path, capsys):
        # fa*dx overflows while fa*fb*dx does not: the flows are finite, but
        # the closed form is inf / inf, which must not reach the CSV as nan.
        cfg = tmp_path / "replay.cfg"
        cfg.write_text("scenes = replay\nfa = 2\nfb = 0.5\nza = 1\nzb = 1\n"
                       "d1 = 0\nd2 = 1\ndx = 1.7e308\n")
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 3
        err = capsys.readouterr().err
        assert "scene 'replay' cannot be simulated" in err
        assert "closed-form replay ratio overflows" in err
        assert not (tmp_path / "simulation.csv").exists()

    def test_overflowing_flow_ratio_is_data_error(self, tmp_path, capsys):
        # The flows are finite, but du_l / du_m and du_l / du_r overflow, so
        # the estimate is inf / inf, which must not reach the CSV as nan.
        cfg = tmp_path / "near.cfg"
        cfg.write_text("scenes = real\nz = 1e-308\nd1 = 1e10\nd2 = 2e10\n")
        out = tmp_path / "out"
        assert run(["simulate", "--config", cfg, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: scene 'real' cannot be simulated: "
                              "the flow ratios overflow")
        assert not out.exists()


class TestDemo:
    def test_report_schema(self, tmp_path):
        assert run(["demo", "--seed", 7, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "demo.json").read_text())
        assert list(report) == ["command", "seed", "oracle", "params",
                                "living", "spoof", "score_gap"]
        for kind in ("living", "spoof"):
            entry = report[kind]
            assert set(entry) == {"losses", "b_hat", "depth_term", "score"}
            assert set(entry["losses"]) == {"absolute", "contrastive",
                                            "depth_total", "binary",
                                            "multi_total"}
            losses = entry["losses"]
            assert losses["depth_total"] == pytest.approx(
                losses["absolute"] + losses["contrastive"], rel=1e-12)
            assert losses["multi_total"] == pytest.approx(
                0.9 * losses["binary"] + 0.1 * losses["depth_total"], rel=1e-12)
            assert 0.0 <= entry["b_hat"] <= 1.0

    @pytest.mark.parametrize("mode", ["full", "oracle"])
    def test_seed7_matches_reference(self, tmp_path, mode):
        flags = ["--oracle"] if mode == "oracle" else []
        assert run(["demo", "--seed", 7, "--out", tmp_path, *flags]) == 0
        report = json.loads((tmp_path / "demo.json").read_text())
        ref_path = REFERENCE_DIR / f"demo-{mode}-seed7.json"
        assert_matches_reference(report, json.loads(ref_path.read_text()))

    def test_oracle_outputs_match_golden_bytes(self, tmp_path):
        for frames, digests in DEMO_ORACLE_SHA256.items():
            for seed, digest in enumerate(digests):
                assert run(["demo", "--oracle", "--seed", seed, "--frames",
                            frames, "--out", tmp_path]) == 0
                data = (tmp_path / "demo.json").read_bytes()
                assert hashlib.sha256(data).hexdigest() == digest, (frames, seed)

    def test_full_outputs_match_golden_bytes(self, tmp_path):
        for frames, digests in DEMO_FULL_SHA256.items():
            for seed, digest in enumerate(digests):
                assert run(["demo", "--seed", seed, "--frames", frames,
                            "--out", tmp_path]) == 0
                data = (tmp_path / "demo.json").read_bytes()
                assert hashlib.sha256(data).hexdigest() == digest, (frames, seed)

    @staticmethod
    def assert_full_values(out, seed, frames):
        report = json.loads((out / "demo.json").read_text())
        for kind, want in DEMO_FULL_VALUES[seed, frames].items():
            got = report[kind]
            losses = got["losses"]
            assert (got["score"], got["b_hat"], losses["absolute"],
                    losses["contrastive"], losses["depth_total"],
                    losses["binary"], losses["multi_total"]) == pytest.approx(
                        want, rel=1e-12, abs=0.0), kind

    @pytest.mark.parametrize("seed, frames", list(DEMO_FULL_VALUES))
    def test_full_values_match_table(self, tmp_path, seed, frames):
        assert run(["demo", "--seed", seed, "--frames", frames,
                    "--out", tmp_path]) == 0
        self.assert_full_values(tmp_path, seed, frames)

    def test_deterministic_per_seed(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run(["demo", "--seed", 7, "--out", a]) == 0
        assert run(["demo", "--seed", 7, "--out", b]) == 0
        assert run(["demo", "--seed", 8, "--out", c]) == 0
        assert (a / "demo.json").read_bytes() == (b / "demo.json").read_bytes()
        assert (a / "demo.json").read_bytes() != (c / "demo.json").read_bytes()

    def test_oracle_injection_gap_identity(self, tmp_path):
        assert run(["demo", "--oracle", "--seed", 7, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "demo.json").read_text())
        assert report["oracle"] is True
        assert report["oracle_gap_ok"] is True
        beta = report["params"]["beta"]
        # Reconstruct the ground-truth surface from the echoed parameters and
        # predict the gap independently: the spoof depth term is zero and,
        # with no head drawn, both samples have b_hat 0.5.
        surface = depthlabel.synthesize_face_surface(
            amplitude=report["params"]["surface"]["amplitude"],
            center=tuple(report["params"]["surface"]["center"]),
            radius=report["params"]["surface"]["radius"],
            grid_size=report["params"]["surface"]["grid_size"])
        label = depthlabel.generate_living_depth(surface)
        mask = (label > 0).astype(np.int64)
        steps = report["params"]["frames"] - 1
        expected_gap = (1 - beta) * metrics.masked_depth_term(
            [label] * steps, [mask] * steps)
        assert report["score_gap"] == pytest.approx(expected_gap, abs=1e-9)
        assert report["score_gap"] >= 0.5 * (1 - beta)
        # Spoof losses: all-zero prediction against an all-zero label.
        assert report["spoof"]["losses"]["depth_total"] == 0.0
        assert report["living"]["losses"]["depth_total"] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(beta=st.floats(0.0, 1.0), frames=st.integers(2, 9))
    @example(beta=math.nextafter(1.0, 0.0), frames=2)
    def test_oracle_gap_always_holds(self, beta, frames):
        # The oracle gap is (1 - beta) * D with D the masked living depth
        # term, so it reaches 0.5 * (1 - beta) for every beta in [0, 1].
        report = cli.run_demo(alpha=0.8, beta=beta, frames=frames, seed=0,
                              oracle=True)
        assert report["living"]["depth_term"] > 0.5
        assert report["oracle_gap_ok"] is True

    def test_beta_one_gap_is_bhat_driven(self, tmp_path):
        # With no oracle head drawn b_hat is 0.5 for both, and with beta = 1
        # the depth term is ignored, so both scores coincide exactly.
        assert run(["demo", "--oracle", "--beta", "1.0", "--seed", 7,
                    "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "demo.json").read_text())
        assert report["score_gap"] == pytest.approx(
            report["living"]["b_hat"] - report["spoof"]["b_hat"], abs=1e-15)
        assert report["living"]["score"] == report["living"]["b_hat"]

    def test_oracle_draws_no_head(self, tmp_path, monkeypatch):
        def refuse(head):
            raise AssertionError("oracle mode built a binary head")

        monkeypatch.setattr(supervision.BinaryHead, "__post_init__", refuse)
        assert run(["demo", "--oracle", "--seed", 7, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "demo.json").read_text())
        ref_path = REFERENCE_DIR / "demo-oracle-seed7.json"
        assert_matches_reference(report, json.loads(ref_path.read_text()))

    def test_oracle_from_config_file(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("oracle = true\n")
        by_file, by_flag = tmp_path / "file", tmp_path / "flag"
        assert run(["demo", "--config", cfg, "--seed", 7, "--out", by_file]) == 0
        assert run(["demo", "--oracle", "--seed", 7, "--out", by_flag]) == 0
        report = json.loads((by_file / "demo.json").read_text())
        assert report["oracle"] is True
        assert ((by_file / "demo.json").read_bytes()
                == (by_flag / "demo.json").read_bytes())

    def test_bad_alpha_is_usage_error(self, tmp_path):
        assert run(["demo", "--alpha", "1.5", "--out", tmp_path]) == 2

    def test_negative_seed_is_usage_error(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("seed = -1\n")
        for flags in ([], ["--oracle"]):
            assert run(["demo", "--seed", -1, "--out", tmp_path, *flags]) == 2
            assert run(["demo", "--config", cfg, "--out", tmp_path, *flags]) == 2
        assert not (tmp_path / "demo.json").exists()

    def test_frames_above_cap_is_usage_error(self, tmp_path):
        # Rejected before any weights are allocated or scene simulated, by
        # flag or config file; simulate and demo share the cap.
        over = MAX_FRAMES + 1
        assert run(["demo", "--frames", over, "--out", tmp_path]) == 2
        assert run(["demo", "--oracle", "--frames", over, "--out", tmp_path]) == 2
        assert run(["simulate", "--frames", over, "--out", tmp_path]) == 2
        cfg = tmp_path / "frames.cfg"
        cfg.write_text(f"frames = {over}\n")
        assert run(["demo", "--config", cfg, "--out", tmp_path]) == 2
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2
        assert not (tmp_path / "demo.json").exists()
        assert not (tmp_path / "simulation.csv").exists()
        assert run(["simulate", "--frames", MAX_FRAMES, "--out", tmp_path]) == 0
        rows = read_sweep_csv(tmp_path / "simulation.csv")
        assert len(rows) == 4 * (MAX_FRAMES - 1)


class TestMetricsCommand:
    def test_metrics_json(self, tmp_path):
        records = [(0.9, "living", None), (0.8, "living", None),
                   (0.7, "attack", "print1"), (0.3, "attack", "print1"),
                   (0.2, "attack", "replay1")]
        path = tmp_path / "records.csv"
        write_records(path, records)
        assert run(["metrics", path, "--threshold", 0.5,
                    "--out", tmp_path]) == 0
        summary = json.loads((tmp_path / "metrics.json").read_text())
        direct = metrics.metrics_summary(record_counts(records, 0.5))
        assert summary == json.loads(json.dumps(direct))

    def test_non_finite_threshold_is_usage_error(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("score,label,attack_kind\n0.9,living,\n0.2,attack,\n")
        cfg = tmp_path / "metrics.cfg"
        for value in ("nan", "inf", "-inf"):
            assert run(["metrics", path, f"--threshold={value}",
                        "--out", tmp_path]) == 2
            cfg.write_text(f"threshold = {value}\n")
            assert run(["metrics", path, "--config", cfg, "--out", tmp_path]) == 2
        assert not (tmp_path / "metrics.json").exists()

    def test_empty_records_is_data_error(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("score,label,attack_kind\n")
        assert run(["metrics", path, "--out", tmp_path]) == 3

    def test_wrong_field_count_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        for row, got in (("0.5,living,,extra,more", 5), ("0.5,living", 2),
                         ("0.5", 1)):
            path.write_text(f"score,label,attack_kind\n0.2,attack,\n{row}\n")
            assert run(["metrics", path, "--out", tmp_path]) == 3
            assert f"line 3: expected 3 fields, got {got}" in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    def test_over_long_field_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        path.write_text("score,label,attack_kind\n0.9,living,\n"
                        f"0.2,attack,{'x' * 200_000}\n0.1,attack,\n")
        assert run(["metrics", path, "--out", tmp_path]) == 3
        assert "line 3: field larger than field limit" in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    def test_unclosed_quote_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        path.write_text('score,label,attack_kind\n0.9,living,\n'
                        '0.5,attack,"abc\n0.2,living,\n0.3,attack,x\n')
        assert run(["metrics", path, "--out", tmp_path]) == 3
        assert "line 5: unexpected end of data" in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    def test_undecodable_byte_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        rows = b"0.5,living,\n" * 2586    # 31 KB of rows above the byte
        path.write_bytes(b"score,label,attack_kind\n0.2,attack,\n" + rows
                         + b"0.1,attack,\xff\n0.3,attack,\n")
        offset = path.read_bytes().index(b"\xff")
        assert run(["metrics", path, "--out", tmp_path]) == 3
        assert ("line 2589: 'utf-8' codec can't decode byte 0xff in position "
                f"{offset}:") in capsys.readouterr().err
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("body, line, position", [
        (b"0.9,living,\n0.1,attack,print\n", None, None),
        (b"0.9,living,\n0.1,atk,print\n", 3, None),
        (b"0.9,living,\n0.1,attack,pr\xffint\n", 3, 49),
    ], ids=["valid", "bad-row", "bad-byte"])
    def test_byte_order_mark_is_not_text(self, tmp_path, capsys, body, line,
                                         position):
        # Spreadsheet tools start a UTF-8 CSV with EF BB BF. It is read as
        # the encoding mark, and byte positions still count it.
        outcomes = []
        for bom in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / "records.csv"
            path.write_bytes(bom + b"score,label,attack_kind\n" + body)
            out = tmp_path / f"out{len(bom)}"
            code = run(["metrics", path, "--out", out])
            result = out / "metrics.json"
            outcomes.append((code, capsys.readouterr().err.replace(str(out), "OUT"),
                             result.read_bytes() if result.exists() else None))
        plain, marked = outcomes
        if line is None:
            assert plain[0] == 0 and plain[2] is not None
        else:
            assert plain[0] == 3 and f": line {line}: " in plain[1]
        if position is not None:
            assert f"in position {position}:" in plain[1]
            plain = (plain[0], plain[1].replace(f"position {position}:",
                                                f"position {position + 3}:"),
                     plain[2])
        assert marked == plain

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["metrics", tmp_path / "absent.csv", "--out", tmp_path]) == 3

    def test_nul_in_records_path_is_usage_error(self, tmp_path, capsys):
        # An OS command line cannot carry a NUL; an in-process caller can.
        out = tmp_path / "out"
        assert run(["metrics", "a\0b.csv", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == ("usage error: the records path must not hold a NUL "
                       "byte, got 'a\\x00b.csv'\n")
        assert not out.exists()

    def test_single_class_is_data_error(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("score,label,attack_kind\n0.9,living,\n")
        assert run(["metrics", path, "--out", tmp_path]) == 3


PIPED_RECORDS = {
    "bad row": (b"score,label,attack_kind\n0.5,living,\nnope,attack,print1\n",
                "line 3: bad score 'nope'"),
    "bad byte": (b"score,label,attack_kind\n0.5,living,\n0.2,attack,\xff\n",
                 "line 3: 'utf-8' codec can't decode byte 0xff in position 47: "
                 "invalid start byte"),
    "valid": (b"score,label,attack_kind\n0.9,living,\n0.4,living,\n"
              b"0.7,attack,print1\n0.2,attack,\n", None),
}
# A plain file of three blocks and more: a pipe holds 64 KiB, so each block
# takes several reads from it.
PIPED_ROWS = b"0.25,attack,print1\n0.75,living,\n0.5,attack,\n0.125,living,\n"
PIPED_RECORDS["valid, 3 blocks"] = (
    b"score,label,attack_kind\n"
    + PIPED_ROWS * (3 * metrics.BLOCK_BYTES // len(PIPED_ROWS) + 1), None)


def metrics_through_a_pipe(tmp_path, data: bytes, source: str):
    """Run depthpad metrics in a fresh process on data that arrives through
    a named FIFO (source "fifo") or a pipe to /dev/stdin (source "stdin").

    The process is given 10 s, so a reader that waits for a writer that has
    gone fails the test instead of hanging the suite.
    """
    out = tmp_path / "out"
    fifo = tmp_path / "records.fifo"
    args = ("-m", "depthpad.cli", "metrics",
            "/dev/stdin" if source == "stdin" else str(fifo), "--out", str(out))
    if source == "stdin":
        return run_fresh(*args, input=data, check=False, text=False,
                         timeout=10), out
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        done = run_fresh(*args, check=False, text=False, timeout=10)
    finally:
        if writer.is_alive():    # the reader never opened the FIFO
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()
    return done, out


@pytest.mark.parametrize("source", ["fifo", "stdin"])
@pytest.mark.parametrize("case", list(PIPED_RECORDS))
def test_metrics_reads_a_pipe_once(tmp_path, source, case):
    # The records path is opened once, so a stream that can be read only
    # once gives the same exit code, message and metrics.json as a file.
    data, message = PIPED_RECORDS[case]
    done, out = metrics_through_a_pipe(tmp_path, data, source)
    if message is not None:
        assert done.returncode == 3, done.stderr
        assert message in done.stderr.decode()
        assert not out.exists()
        return
    assert done.returncode == 0, done.stderr
    path = tmp_path / "records.csv"
    path.write_bytes(data)
    assert run(["metrics", path, "--out", tmp_path / "regular"]) == 0
    assert ((out / "metrics.json").read_bytes()
            == (tmp_path / "regular" / "metrics.json").read_bytes())


class TestConfigFields:
    @pytest.mark.parametrize("command, line", [
        ("simulate", "seed = 5"), ("simulate", "alpha = 0.5"),
        ("simulate", "threshold = 0.5"),
        ("demo", "d1 = 0.2"), ("demo", "scenes = real"),
        ("demo", "threshold = 0.5"),
        ("metrics", "frames = 5"), ("metrics", "seed = 1"),
        ("metrics", "oracle = true"),
    ])
    def test_field_the_command_does_not_read_is_usage_error(
            self, tmp_path, capsys, command, line):
        records = tmp_path / "records.csv"
        write_records(records, [(0.9, "living", None), (0.2, "attack", None)])
        cfg = tmp_path / "misplaced.cfg"
        cfg.write_text(f"out = {tmp_path}\n{line}\n")
        argv = [command, records] if command == "metrics" else [command]
        assert run([*argv, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2: {command} does not read field" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["misplaced.cfg",
                                                              "records.csv"]

    @pytest.mark.parametrize("line, problem", [
        ("dv_schedule = 0.05,,0.1", "entry 2 of 3 is empty"),
        ("dv_schedule = 0.05,0.1,", "entry 3 of 3 is empty"),
        ("dv_schedule = ,0.05", "entry 1 of 2 is empty"),
        ("dv_schedule = 0.05, ,0.1", "entry 2 of 3 is empty"),
        ("scenes = real,,print", "entry 2 of 3 is empty"),
        ("scenes = real,", "entry 2 of 2 is empty"),
    ])
    def test_empty_list_entry_is_usage_error(self, tmp_path, capsys, line,
                                             problem):
        # An empty entry is a typo, never an entry to drop silently.
        out = tmp_path / "out"
        cfg = tmp_path / "lists.cfg"
        cfg.write_text(f"out = {out}\n{line}\n")
        assert run(["simulate", "--config", cfg]) == 2
        key = line.partition(" ")[0]
        assert capsys.readouterr().err == (f"usage error: {cfg}:2: bad value "
                                           f"for {key!r}: {problem}\n")
        assert not out.exists()

    def test_each_command_reads_its_own_fields(self, tmp_path):
        records = tmp_path / "records.csv"
        write_records(records, [(0.9, "living", None), (0.2, "attack", None)])
        for argv, text in (
                (["simulate"], "d1 = 0.2\ntheta = 0.1\nscenes = real\n"
                               "dv_schedule = 0.1\nframes = 3\n"),
                (["demo"], "frames = 3\nseed = 2\nalpha = 0.5\nbeta = 0.5\n"
                           "oracle = true\n"),
                (["metrics", records], "threshold = 0.5\n")):
            cfg = tmp_path / f"{argv[0]}.cfg"
            cfg.write_text(f"out = {tmp_path / argv[0]}\n{text}")
            assert run([*argv, "--config", cfg]) == 0


def command_argv(command, tmp_path):
    """argv that makes command succeed, short of writing its outputs."""
    if command != "metrics":
        return [command, "--frames", 3]
    records = tmp_path / "records.csv"
    records.write_text("score,label,attack_kind\n0.9,living,\n0.2,attack,\n")
    return ["metrics", records]


@pytest.mark.parametrize("command", ["simulate", "demo", "metrics"])
class TestOutputAndConfigErrors:
    """Unusable --out and unreadable config files are usage errors that
    leave the file tree as it was."""

    def assert_usage_error(self, tmp_path, capsys, argv, *named):
        before = sorted(tmp_path.rglob("*"))
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        for text in named:
            assert text in captured.err
        assert "wrote" not in captured.out + captured.err
        assert sorted(tmp_path.rglob("*")) == before

    def test_out_is_a_file(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("x")
        argv = command_argv(command, tmp_path)
        self.assert_usage_error(tmp_path, capsys, [*argv, "--out", taken],
                                f"output directory {taken}")
        assert taken.read_text() == "x"

    def test_output_file_is_a_directory(self, tmp_path, capsys, command):
        name = {"simulate": "simulation.csv", "demo": "demo.json",
                "metrics": "metrics.json"}[command]
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        argv = command_argv(command, tmp_path)
        self.assert_usage_error(tmp_path, capsys, [*argv, "--out", out],
                                f"output directory {out}", str(out / name))

    def test_out_parent_cannot_be_created(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("x")
        out = taken / "out"
        argv = command_argv(command, tmp_path)
        self.assert_usage_error(tmp_path, capsys, [*argv, "--out", out],
                                f"output directory {out}")

    def test_empty_out(self, tmp_path, capsys, command, monkeypatch):
        # Path("") is ".", so an empty value must not mean the working
        # directory; run from tmp_path so a stray write would show.
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("out =\n")
        argv = command_argv(command, tmp_path)
        for flags in (["--out", ""], ["--config", cfg]):
            self.assert_usage_error(tmp_path, capsys, [*argv, *flags],
                                    "--out (config field 'out') must be")

    def test_config_that_is_not_utf8(self, tmp_path, capsys, command):
        # The bad byte's line is numbered by the breaks that number the lines
        # of a decodable file: str.splitlines, so "\r\n" is one break.
        cfg = tmp_path / "bad.cfg"
        argv = command_argv(command, tmp_path)
        for head, line_no in ((f"out = {tmp_path / 'out'}\n", 2),
                              ("# a\r# b\r\n", 3),
                              ("# a\u2028# b\n\n", 4)):
            cfg.write_bytes(head.encode() + b"\xff = 1\n")
            self.assert_usage_error(
                tmp_path, capsys, [*argv, "--config", cfg],
                f"{cfg}:{line_no}: 'utf-8' codec can't decode byte 0xff")

    def test_duplicate_config_key(self, tmp_path, capsys, command):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(f"out = {tmp_path / 'a'}\n\nout = {tmp_path / 'b'}\n")
        argv = command_argv(command, tmp_path)
        self.assert_usage_error(tmp_path, capsys, [*argv, "--config", cfg],
                                f"{cfg}:3: field 'out' is already set on line 1")

    def test_nul_in_config_path(self, tmp_path, capsys, command):
        # An OS command line cannot carry a NUL; an in-process caller can.
        argv = command_argv(command, tmp_path)
        self.assert_usage_error(tmp_path, capsys,
                                [*argv, f"--config={tmp_path}/a\0b"],
                                "cannot read config file", "embedded null byte")


class TestConfigByteCap:
    """A config file is read through a MAX_CONFIG_BYTES cap, so no config
    costs more memory than the cap, whatever its size or source."""

    def test_cap_is_inclusive(self, tmp_path):
        cfg = tmp_path / "cap.cfg"
        line = b"# " + b"x" * 60 + b"\n"
        at_cap = (line * (MAX_CONFIG_BYTES // len(line) + 1))[:MAX_CONFIG_BYTES]
        cfg.write_bytes(at_cap)
        assert parse_config_file(cfg, "simulate") == {}
        cfg.write_bytes(at_cap + b"#")
        with pytest.raises(UsageError, match=f"^config file {cfg} is larger "
                           f"than the {MAX_CONFIG_BYTES}-byte cap$"):
            parse_config_file(cfg, "simulate")

    def test_oversized_fifo_is_usage_error(self, tmp_path, capsys):
        fifo = tmp_path / "config.fifo"
        os.mkfifo(fifo)

        def write_until_closed():
            with contextlib.suppress(BrokenPipeError):
                fifo.write_bytes(b"# comment\n" * 100_000)

        writer = threading.Thread(target=write_until_closed)
        writer.start()
        try:
            code = run(["simulate", "--config", fifo, "--out", tmp_path / "out"])
        finally:
            if writer.is_alive():    # the reader never opened the FIFO
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert code == 2
        assert capsys.readouterr().err == (
            f"usage error: config file {fifo} is larger than the "
            f"{MAX_CONFIG_BYTES}-byte cap\n")
        assert not (tmp_path / "out").exists()


# Runs cli.main on sys.argv[1:] and prints its exit code and the process's
# own peak resident set size in KiB. That is VmHWM where /proc has it: a
# child that subprocess starts with vfork reports at least its parent's peak
# as ru_maxrss, so under pytest ru_maxrss reads the test runner's peak.
PEAK_PROBE = """
import resource, sys
from depthpad import cli
code = cli.main(sys.argv[1:])
try:
    with open("/proc/self/status") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(code, peak)
"""

RECORD_BLOCK = [(0.25, metrics.ATTACK, "print"), (0.75, metrics.LIVING, ""),
                (0.5, metrics.ATTACK, ""), (0.125, metrics.LIVING, ""),
                (0.9, metrics.ATTACK, "replay")]
HEADER = "score,label,attack_kind\n"
RECORD_ROWS = "".join(f"{score!r},{label},{kind}\n"
                      for score, label, kind in RECORD_BLOCK)


def records(repeats, quoted=False):
    """A COSTS row's text and want for RECORD_BLOCK repeated, after a row
    whose quoted tag hands the whole file to csv if quoted."""
    head = [(0.2, metrics.ATTACK, "print")] * quoted
    return dict(text=lambda: (HEADER + '0.2,attack,"print"\n' * quoted
                              + RECORD_ROWS * repeats),
                want=lambda: record_counts(head + RECORD_BLOCK * repeats, 0.5))


LINE_3 = HEADER + "0.9,living,\n{}\n"
LINE_3_ERROR = "data error: bad records file {input}: line 3: "
RECORDS = "metrics {input} --threshold 0.5"
PIPED = "metrics /dev/stdin --threshold 0.5"
# A fresh depthpad process per row. "{input}" in argv and stderr names a file
# holding text(), piped to stdin when argv reads /dev/stdin; --out is added.
# It exits with code (else 0), writes exactly stderr, peaks at most margin
# KiB above the baseline row's VmHWM, and summarizes want(), each if given.
COSTS = {
    "simulate, empty config": dict(argv="simulate --config {input}"),
    # The config is read only up to its 64 KiB cap.
    "simulate, 50 MB config": dict(
        argv="simulate --config {input}", code=2,
        text=lambda: "# a comment line of the config file, not a setting\n"
        * 1_000_000, baseline="simulate, empty config", margin=4096),
    # 4 scenes of 64 frames: 1 MiB of floats (0.1 MiB measured) + 4 MiB.
    "simulate, 64 frames": dict(argv="simulate --frames 64", margin=1024 + 4096,
                                baseline="simulate, empty config"),
    "metrics, short line": dict(argv="metrics {input}",
                                text=lambda: LINE_3.format("0.5,attack,x")),
    # A long line is read only as far as csv needs to fail.
    "metrics, 20 MB tag": dict(
        argv="metrics {input}", code=3,
        text=lambda: LINE_3.format("0.5,attack," + "x" * 20_000_000),
        stderr=LINE_3_ERROR + "field larger than field limit (131072)\n",
        baseline="metrics, short line", margin=8192),
    # The 1.57 million empty fields that csv would split are counted instead.
    "metrics, 20 MB of commas": dict(
        argv="metrics {input}", code=3,
        text=lambda: LINE_3.format("," * 20_000_000),
        stderr=LINE_3_ERROR + "expected 3 fields, got 1572877\n",
        baseline="metrics, short line", margin=8192),
    "metrics, 10 rows": dict(argv=RECORDS, **records(2)),
    # The reader holds one block of the file at a time.
    "metrics, 1e6 rows": dict(argv=RECORDS, **records(200_000),
                              baseline="metrics, 10 rows", margin=4096),
    "metrics quoted, 10 rows": dict(argv=RECORDS, **records(2, quoted=True)),
    # csv checks and counts the file a row at a time.
    "metrics quoted, 2e5 rows": dict(
        argv=RECORDS, **records(40_000, quoted=True),
        baseline="metrics quoted, 10 rows", margin=4096),
    "metrics piped, 10 rows": dict(argv=PIPED, **records(2)),
    # A pipe is read a block at a time, as a file is.
    "metrics piped, 1e6 rows": dict(argv=PIPED, **records(200_000),
                                    baseline="metrics piped, 10 rows",
                                    margin=4096),
    # numpy as for metrics; modules and labels 2 MiB (1.1 measured) + 4 MiB.
    "demo oracle, 5 frames": dict(argv="demo --oracle --frames 5",
                                  baseline="metrics, 10 rows",
                                  margin=2048 + 4096),
    # 8 contrastive responses of 8 KiB a step: 128 KiB (80 measured) + 4 MiB.
    "demo oracle, 64 frames": dict(argv="demo --oracle --frames 64",
                                   baseline="demo oracle, 5 frames",
                                   margin=(64 - 5) * 128 + 4096),
    # w1, 1 MiB a step; motion pass and head thread 8 MiB (7.0 measured) + 4.
    "demo full, 5 frames": dict(argv="demo --frames 5",
                                baseline="demo oracle, 5 frames",
                                margin=(5 - 1) * 1024 + 8192 + 4096),
    # w1, 1 MiB a frame; motion pass and losses 256 KiB (210 measured) + 4 MiB.
    "demo full, 64 frames": dict(argv="demo --frames 64",
                                 baseline="demo full, 5 frames",
                                 margin=(64 - 5) * (1024 + 256) + 4096),
}


@pytest.fixture(scope="module")
def costs(tmp_path_factory):
    """(code, VmHWM KiB, wall s, stderr, input) of each COSTS row, run once."""
    root = tmp_path_factory.mktemp("costs")

    def run(name):
        row, path = COSTS[name], root / str(list(COSTS).index(name))
        path.write_text(text := row.get("text", str)())
        argv = [arg.format(input=path) for arg in row["argv"].split()]
        start = time.perf_counter()
        done = run_fresh("-c", PEAK_PROBE, *argv, "--out", f"{path}.out",
                         input=text if "/dev/stdin" in argv else None)
        wall = time.perf_counter() - start
        path.unlink()
        return (*map(int, done.stdout.split()[-2:]), wall, done.stderr, path)
    with ThreadPoolExecutor(2) as pool:
        return dict(zip(COSTS, pool.map(run, COSTS)))


@pytest.mark.parametrize("name", list(COSTS))
def test_fresh_process_cost_is_bounded(costs, name):
    row, (code, peak, wall, stderr, path) = COSTS[name], costs[name]
    assert code == row.get("code", 0), stderr
    if "stderr" in row:
        assert stderr == row["stderr"].format(input=path)
    # Over 20 times the slowest row, so a loaded machine passes, while a
    # cost that grows with the square of the input fails.
    assert wall <= 10.0
    if "baseline" in row:
        assert peak <= costs[row["baseline"]][1] + row["margin"]
    if "want" in row:
        summary = json.loads(Path(f"{path}.out", "metrics.json").read_text())
        assert summary == metrics.metrics_summary(row["want"]())


# -- the exit-code contract under drawn argv and config-file bytes ----------

def either(good, bad):
    """A value that the command accepts or one that it must reject."""
    return st.one_of(st.sampled_from(good), st.sampled_from(bad))


# Frames up to the cap are covered elsewhere; a 64-frame full demo takes
# seconds, so the drawn counts stay small or far out of range. Every path is
# relative to the example's own working directory.
FRAMES = either(["2", "3", "5"], ["-1", "0", "1", "65", str(10 ** 30),
                                  str(-10 ** 30), "1.5", "nan", ""])
SEEDS = either(["0", "7", str(2 ** 64), str(10 ** 30)], ["-1", "1.5", ""])
UNIT = either(["0", "0.5", "1", "-0.0", "1e-320"],
              ["nan", "inf", "-inf", "1e400", "1.5", "-1", "0x10", "9" * 400, ""])
NUMBERS = either(["0.2", "1", "3", "1e-300", "1.7e308"],
                 ["nan", "inf", "-inf", "-1", "0", "", "one"])
OUT = either(["out", "out/sub", ".", "demo.json"],
             ["", "taken", "taken/sub", "records.csv", "a\0b"])
FLAGS = {
    "simulate": {"--frames": FRAMES},
    "demo": {"--frames": FRAMES, "--seed": SEEDS, "--alpha": UNIT,
             "--beta": UNIT},
    "metrics": {"--threshold": NUMBERS},
}
FIELDS = {
    "frames": FRAMES, "seed": SEEDS, "out": OUT,
    "alpha": UNIT, "beta": UNIT, "threshold": NUMBERS,
    "oracle": either(["true", "no", "1"], ["maybe", ""]),
    "scenes": either(["real", "print,replay", "rotated,real"],
                     ["real,real", "mirror", ",", ""]),
    "dv_schedule": either(["0.1", "0.05,-0.05"],
                          ["0.0", "nan", "inf,0.1", "1e308", ", ,", ""]),
}
RECORDS_FILES = either(
    [b"score,label,attack_kind\n0.9,living,\n0.2,attack,print\n0.6,attack,\n"],
    [b"score,label,attack_kind\n0.9,living,\nnan,attack,\n",
     b"score,label,attack_kind\n0.9,living,\n0.2,att\xffack,\n",
     b"score,label,attack_kind\n0.9,living,\n",
     b"score,label,attack_kind\n", b""])
BAD_BYTES = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"\r", b"#"]
# The drawn config bytes are read three times in four.
CONFIG_PATHS = st.one_of(*[st.just("cfg")] * 3, st.sampled_from(
    ["absent.cfg", "taken/cfg", "cfg\0"]))


@st.composite
def config_bytes(draw, command):
    """Lines of the command's fields (any field, now and then), repeats,
    malformed lines and stray bytes."""
    own = st.sampled_from(COMMAND_FIELDS[command])
    keys = draw(st.lists(st.one_of(own, own, st.sampled_from(sorted(
        [*CONFIG_FIELDS, "dv"]))), max_size=4))
    lines = [f"{key} = {draw(FIELDS.get(key, NUMBERS))}".encode()
             for key in keys]
    lines += draw(st.lists(st.sampled_from([b"# note", b"", b"frames 3",
                                            b"= 3"]), max_size=2))
    data = b"\n".join(draw(st.permutations(lines)))
    for bad in draw(st.lists(st.sampled_from(BAD_BYTES), max_size=1)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bad + data[at:]
    return data


@st.composite
def invocations(draw):
    """(argv, config bytes or None, records bytes) for one cli.main call."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command == "metrics":
        argv.append(draw(either(["records.csv"],
                                ["absent.csv", ".", "records.csv\0"])))
    for flag, values in FLAGS[command].items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    if command == "demo" and draw(st.booleans()):
        argv.append("--oracle")
    if draw(st.booleans()):
        argv.append(f"--out={draw(OUT)}")
    config = draw(st.one_of(st.none(), config_bytes(command)))
    if config is not None:
        argv.append(f"--config={draw(CONFIG_PATHS)}")
    return argv, config, draw(RECORDS_FILES)


def file_tree(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


class TestExitCodeContract:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(invocations())
    def test_every_exit_is_documented(self, drawn):
        argv, config, records = drawn
        home = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "taken").write_text("x")
            (root / "records.csv").write_bytes(records)
            if config is not None:
                (root / "cfg").write_bytes(config)
            before = file_tree(root)
            out, err = io.StringIO(), io.StringIO()
            os.chdir(root)
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main(argv)
                prefixes = ("usage error:", "data error:")
            except SystemExit as exc:
                # argparse rejects a flag value itself: exit 2 after its
                # usage line (TestArgparseContract).
                code, prefixes = exc.code, (f"usage: depthpad {argv[0]} ",)
                assert code == 2, (argv, code)
            finally:
                os.chdir(home)
            after = file_tree(root)
        assert code in (0, 2, 3), (argv, code)
        if code == 0:
            return
        err = err.getvalue()
        assert err.startswith(prefixes), (argv, err)
        changed = {name for name in before.keys() | after.keys()
                   if before.get(name, 0) != after.get(name, 0)}
        assert not changed, (argv, err, changed)


def test_cli_import_loads_no_scipy():
    # The CLI runs on numpy alone. The test extra keeps scipy only because
    # the benchmark's environment report (bench/environment.py) imports it.
    code = ("import sys, depthpad.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    assert run_fresh("-c", code).stdout.strip() == "[]"


def test_cli_import_loads_no_command_module():
    # The commands import what they compute and write with when they run, so
    # a process that only imports the CLI starts quickly.
    code = ("import sys; before = set(sys.modules); import depthpad.cli; "
            "print(sorted(set(sys.modules) - before))")
    added = ast.literal_eval(run_fresh("-c", code).stdout)
    package = [name for name in added if name.split(".")[0] == "depthpad"]
    assert package == ["depthpad", "depthpad.cli"], added
    for name in ("json", "dataclasses", "csv"):
        assert name not in added, added


@pytest.mark.parametrize("module, absent", [
    # The records-file labels live in metrics itself, so reading records
    # never loads the label rasterizer.
    ("depthpad.metrics", "depthpad.depthlabel"),
    # The label rasterizer runs on numpy alone.
    ("depthpad.depthlabel", "depthpad.supervision"),
], ids=["metrics", "depthlabel"])
def test_metrics_import_loads_no_depth_labels(module, absent):
    code = f"import sys, {module}; print({absent!r} in sys.modules)"
    assert run_fresh("-c", code).stdout.strip() == "False"


# Two x86-64 CPU paths besides the host's default, each set in a child's
# environment only: another OpenBLAS kernel, which rounds the motion block's
# matmul otherwise, and numpy's SIMD dispatch capped below AVX-512, which
# rounds np.exp and np.log otherwise. Either moves the last bits of the
# full-mode demo.json, so DEMO_FULL_SHA256 holds on the default path only;
# the full-mode values, the oracle bytes and the simulate bytes hold on all.
OTHER_CPU_PATHS = {
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-below-avx512": {
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}
NO_NUMPY = 77

# Writes a full and an oracle demo (seed 0, 2 frames) and the default
# simulate under the directory argv[1] names, or exits NO_NUMPY when numpy
# cannot be imported under the child's environment.
OTHER_CPU_PATH_RUN = f"""
import sys
try:
    import numpy
except (ImportError, RuntimeError):  # numpy rejects the dispatch setting
    sys.exit({NO_NUMPY})
from depthpad.cli import main
for name, argv in (("full", ["demo", "--seed", "0", "--frames", "2"]),
                   ("oracle", ["demo", "--oracle", "--seed", "0",
                               "--frames", "2"]),
                   ("simulate", ["simulate"])):
    if main([*argv, "--out", f"{{sys.argv[1]}}/{{name}}"]):
        sys.exit(1)
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the CPU paths named are x86-64 ones")
@pytest.mark.parametrize("cpu_path", list(OTHER_CPU_PATHS))
def test_golden_values_hold_on_other_cpu_paths(tmp_path, cpu_path):
    done = run_fresh("-c", OTHER_CPU_PATH_RUN, str(tmp_path),
                     env=OTHER_CPU_PATHS[cpu_path], check=False)
    if done.returncode == NO_NUMPY:
        pytest.skip(f"numpy cannot be imported under {cpu_path}")
    assert done.returncode == 0, done.stderr
    TestDemo.assert_full_values(tmp_path / "full", 0, 2)
    data = (tmp_path / "oracle" / "demo.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == DEMO_ORACLE_SHA256[2][0]
    TestSimulate.assert_golden_bytes(tmp_path / "simulate", 5)


# Counts the argparse parsers that importing the CLI builds (its first line),
# runs cli.main on sys.argv[1:] (only imports the CLI when there is none) and
# prints the exit status and the numpy modules left loaded as its last line.
NUMPY_PROBE = """
import argparse, sys
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from depthpad import cli
print("parsers built by the import:", len(built))
status = None
if sys.argv[1:]:
    try:
        status = cli.main(sys.argv[1:])
    except SystemExit as exc:
        status = exc.code
print(status, sorted(m for m in sys.modules
                     if m == "numpy" or m.startswith("numpy.")))
"""


@pytest.mark.parametrize("argv, status", [
    ([], None),
    (["--help"], 0),
    (["demo", "--frames", "1"], 2),
    (["simulate"], 0),
])
def test_cli_runs_without_numpy_until_a_command_computes(tmp_path, argv,
                                                         status):
    # simulate is scalar geometry; numpy loads only inside demo and metrics.
    if argv[:1] in (["demo"], ["simulate"]):
        argv = [*argv, "--out", str(tmp_path)]
    done = run_fresh("-c", NUMPY_PROBE, *argv)
    lines = done.stdout.splitlines()
    # The parser is built by the first main call, never by the import.
    assert lines[0] == "parsers built by the import: 0"
    assert lines[-1] == f"{status} []"
    if argv[:1] == ["simulate"]:
        TestSimulate.assert_golden_bytes(tmp_path, 5)


def test_fresh_process_writes_the_in_process_bytes(tmp_path):
    records = tmp_path / "records.csv"
    write_records(records, [(0.9, "living", None), (0.8, "living", None),
                            (0.7, "attack", "print1"),
                            (0.3, "attack", "print1"),
                            (0.2, "attack", "replay1")])
    for argv, name in ((["demo", "--oracle", "--seed", "7"], "demo.json"),
                       (["metrics", str(records)], "metrics.json")):
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        done = run_fresh("-m", "depthpad.cli", *argv, "--out", str(fresh))
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            assert run([*argv, "--out", here]) == 0
        data = (fresh / name).read_bytes()
        assert data == (here / name).read_bytes(), argv
        if argv[0] == "metrics":
            # The summary on stdout is the file's text.
            assert done.stdout.encode() == data == printed.getvalue().encode()


def test_cli_holds_no_model():
    # The forward pass lives in depthpad.model; the front end only checks
    # arguments and writes the report.
    model_modules = {"features", "recurrent", "supervision"}
    tree = ast.parse(Path(cli.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not ({name.rpartition(".")[2] for name in names}
                    & model_modules), ast.unparse(node)
    defined = {target.id for node in tree.body if isinstance(node, ast.Assign)
               for target in node.targets if isinstance(target, ast.Name)}
    assert not {name for name in defined if name.startswith("DEMO_")}


def test_no_module_defines_a_private_twin():
    # One function per formula: a module that defines both name and _name at
    # top level computes one thing two ways.
    for path in sorted(Path(depthpad.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        twins = sorted(n for n in names if n.startswith("_") and n[1:] in names)
        assert not twins, f"{path.name} defines both name and _name: {twins}"


def unused_top_level_imports(source: str) -> list:
    """Names bound by a top-level import that the module never reads.

    A name counts as read when it appears as a name anywhere in the module,
    including inside a quoted annotation.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    nodes = list(ast.walk(tree))
    for node in list(nodes):
        note = getattr(node, "returns" if isinstance(node, ast.FunctionDef)
                       else "annotation", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            nodes += ast.walk(ast.parse(note.value, mode="eval"))
    read = {node.id for node in nodes if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_module_has_an_unused_import():
    for path in sorted(Path(depthpad.__file__).parent.glob("*.py")):
        unused = unused_top_level_imports(path.read_text())
        assert not unused, f"{path.name} imports {unused} and never uses them"


def test_unused_import_check_sees_what_it_should():
    assert unused_top_level_imports(
        "from typing import Sequence\nimport numpy as np\nx = np.zeros(1)\n"
    ) == ["Sequence"]
    assert unused_top_level_imports(
        "import os.path\nfrom a import B\ndef f() -> 'B': return os.sep\n") == []


# Every defaulted parameter and defaulted dataclass field in src/depthpad, as
# module.Class.function(param) or module.Class(field). A default is a second
# configuration of the code; one that no command, workload or other library
# function sets is better a constant, and a default whose value only tests
# reach is better a required argument. Adding a setting means adding it here.
SETTINGS = (
    "cli.main(argv)",
    "features._require_hwc(stacked)",
    "geometry.AttackSceneConfig(theta)",
    "supervision._shift_responses(offsets)",
)


def defaulted_settings(source: str, module: str) -> list:
    """The module's defaulted parameters and dataclass fields, in order."""
    found = []

    def is_dataclass(node):
        return any(ast.unparse(d).split("(")[0].endswith("dataclass")
                   for d in node.decorator_list)

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            name = ".".join([module, *path, getattr(child, "name", "")])
            if isinstance(child, ast.ClassDef):
                if is_dataclass(child):
                    found.extend(
                        f"{name}({item.target.id})" for item in child.body
                        if isinstance(item, ast.AnnAssign)
                        and item.value is not None)
                visit(child, [*path, child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [arg for arg, default in
                              zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None]
                found.extend(f"{name}({arg.arg})" for arg in defaulted)
                visit(child, [*path, child.name])

    visit(ast.parse(source), [])
    return found


def test_every_setting_is_in_the_table():
    found = []
    for path in sorted(Path(depthpad.__file__).parent.glob("*.py")):
        found += defaulted_settings(path.read_text(), path.stem)
    assert sorted(found) == sorted(SETTINGS)
    assert len(SETTINGS) == len(set(SETTINGS)) == 4


def test_settings_census_sees_what_it_should():
    source = """
from dataclasses import dataclass
import dataclasses

@dataclass(frozen=True)
class A:
    x: int
    y: int = 0
    def f(self, a, b=1, *args, c, d=2, **kw):
        def inner(e=3): pass

@dataclasses.dataclass
class B:
    z: float = 1.0

class C:
    w: int = 5
    def g(self, p=None, /, q=0): pass
"""
    assert defaulted_settings(source, "m") == [
        "m.A(y)", "m.A.f(b)", "m.A.f(d)", "m.A.f.inner(e)", "m.B(z)",
        "m.C.g(p)", "m.C.g(q)"]


# Every public depthpad function or method that no command reaches, with the
# reason it is kept. A function that no command runs and nothing else needs
# is better deleted; adding one means naming its reason here.
CLOSED_FORM = "the paper's closed form, the reference for simulate"
FD_CHECKED = "checked against finite differences"
UNREACHED = {
    "cli.cli": "the console-script entry; it only calls main",
    "features.conv2d": "the same-size conv that each motion pair's "
                       "correlation of padded stacks equals",
    "features.off_vector_residual": "brightness constancy, checked by the "
                                    "acceptance gate",
    "geometry.closed_form_rotated_ratio": CLOSED_FORM,
    "geometry.flow_rotated": CLOSED_FORM,
    "geometry.map_rotated_coordinate": CLOSED_FORM,
    "geometry.rotation_beta_factors": CLOSED_FORM,
    "geometry.read_sweep_csv": "the benchmark's parser of simulation.csv",
    "supervision.contrastive_loss_gradient": FD_CHECKED,
    "supervision.depth_loss_gradient": FD_CHECKED,
    "supervision.euclidean_loss_gradient": FD_CHECKED,
}


def public_functions() -> dict:
    """module.name or module.Class.name -> code object, for every public
    function and public method, classmethod or property getter defined in
    a depthpad module. A cached function is named by what it wraps."""
    found = {}
    for info in pkgutil.iter_modules(depthpad.__path__):
        module = importlib.import_module(f"depthpad.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            members = {name: obj}
            if inspect.isclass(obj):
                members = {f"{name}.{attr}": member
                           for attr, member in vars(obj).items()
                           if not attr.startswith("_")}
            for key, member in members.items():
                for unwrap in ("__func__", "fget", "__wrapped__"):
                    member = getattr(member, unwrap, member)
                if inspect.isfunction(member):
                    found[f"{info.name}.{key}"] = member.__code__
    return found


def test_every_unreached_function_is_in_the_table(tmp_path, capsys):
    cfg = tmp_path / "simulate.cfg"
    cfg.write_text("frames = 3\n")
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write_records(good, [(0.9, "living", None), (0.2, "attack", "print")])
    bad.write_text("score,label,attack_kind\n0.9,living,\nnope,attack,\n")
    runs = [(["simulate", "--config", cfg], 0), (["demo", "--frames", 3], 0),
            (["demo", "--oracle"], 0), (["metrics", good], 0),
            (["metrics", bad], 3)]
    # Cold caches, so that a cached function's body runs.
    clear_caches()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    # sys.setprofile sees only this thread; the head is drawn on the model's
    # worker, so a fresh one is started under threading.setprofile.
    model._HEADS.stop()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        codes = [run([*argv, "--out", tmp_path / "out"]) for argv, _ in runs]
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        model._HEADS.stop()
    assert codes == [code for _, code in runs], capsys.readouterr().err
    unreached = sorted(name for name, code in public_functions().items()
                       if code not in reached)
    assert unreached == sorted(UNREACHED)


def test_reach_census_sees_what_it_should():
    found = public_functions()
    # Functions, a cached function, a classmethod and two property getters.
    for name in ("cli.main", "model.oracle_results",
                 "supervision.BinaryHead.seeded",
                 "geometry.RealSceneConfig.relative_depth",
                 "recurrent.ConvGruCell.hidden_channels"):
        assert name in found, name
    # Private names, dunder methods and names a module imports.
    for name in ("cli._check_frames", "geometry.Sweep.__len__",
                 "metrics.multi_frame_loss", "metrics.np"):
        assert name not in found, name
    assert "supervision.multi_frame_loss" in found


class TestArgparseContract:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2

    def test_bad_flag_value_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["demo", "--beta", "soon", "--out", str(tmp_path)])
        assert exc_info.value.code == 2


class TestOneParserPerProcess:
    """main builds the argparse tree once per process and keeps no state in
    it between calls."""

    def test_many_calls_build_one_tree(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        records = tmp_path / "records.csv"
        write_records(records, [(0.9, "living", None), (0.2, "attack", None)])
        for argv in (["simulate"], ["demo", "--frames", 2],
                     ["demo", "--oracle"], ["metrics", records], ["simulate"],
                     ["demo", "--oracle", "--frames", 3]):
            assert run([*argv, "--out", tmp_path / argv[0]]) == 0
        assert built == ["depthpad", "depthpad simulate", "depthpad demo",
                         "depthpad metrics"]

    def test_calls_leak_no_state(self, tmp_path, capsys):
        # A plain demo after --oracle or after an oracle config file must
        # still run in full mode, and the config file's oracle must still
        # apply when no flag is given.
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("oracle = true\n")
        calls = (["demo", "--oracle", "--seed", 3], ["demo", "--seed", 3],
                 ["demo", "--seed", 3, "--config", cfg], ["demo", "--seed", 3])

        def outputs(argv, out):
            assert run([*argv, "--out", out]) == 0
            scores = capsys.readouterr().out.splitlines()[1]
            return (out / "demo.json").read_bytes(), scores

        in_order = [outputs(argv, tmp_path / f"order{i}")
                    for i, argv in enumerate(calls)]
        alone = []
        for i, argv in enumerate(calls):
            cli.build_parser.cache_clear()
            alone.append(outputs(argv, tmp_path / f"alone{i}"))
        assert in_order == alone
        assert [json.loads(data)["oracle"] for data, _ in in_order] == [
            True, False, True, False]
        for data, _ in (in_order[0], in_order[2]):
            assert hashlib.sha256(data).hexdigest() == DEMO_ORACLE_SHA256[5][3]

    @pytest.mark.parametrize("argv", [["--help"], ["demo", "--help"]])
    def test_help_wraps_to_columns_at_call_time(self, capsys, monkeypatch,
                                                argv):
        def help_text(columns):
            monkeypatch.setenv("COLUMNS", str(columns))
            with pytest.raises(SystemExit) as exc_info:
                main(argv)
            assert exc_info.value.code == 0
            return capsys.readouterr().out

        cli.build_parser.cache_clear()
        wide = help_text(200)
        narrow = help_text(40)
        cli.build_parser.cache_clear()
        assert help_text(40) == narrow
        assert help_text(200) == wide
        widest = [max(len(line) for line in text.splitlines())
                  for text in (narrow, wide)]
        assert widest[0] <= 40 < widest[1]


class TestSvgPlot:
    def test_gap_handling_and_determinism(self, tmp_path):
        series = {"a": [(1, 0.5), (2, None), (3, 0.7)],
                  "b": [(1, None), (2, None)]}
        p1, p2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
        svg_line_plot(p1, series, "t", "x", "y")
        svg_line_plot(p2, series, "t", "x", "y")
        text = p1.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2  # two runs split by the gap
        assert "b (flat, no ratio)" in text
        assert p1.read_bytes() == p2.read_bytes()
